package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsedSample is one sample line of an exposition: the full sample
// name (histogram _bucket/_sum/_count suffixes included), its labels in
// input order, the parsed value, and the optional trailing timestamp
// kept verbatim so a re-emit reproduces foreign expositions faithfully.
type ParsedSample struct {
	Name      string
	Labels    []Label
	Value     float64
	Timestamp string
}

// ParsedFamily groups the samples of one metric family (histogram
// derived series attach to their base family, matching how the
// renderer emits them).
type ParsedFamily struct {
	// Name is the family (base) name.
	Name string
	// Help and Type carry the # HELP / # TYPE metadata; the Has flags
	// distinguish "absent" from "empty" so re-emitting an exposition
	// that declared no metadata stays faithful.
	Help    string
	HasHelp bool
	Type    string
	HasType bool
	// Samples holds the family's sample lines in input order.
	Samples []ParsedSample
}

// Value returns the value of the sample matching the full sample name
// and exactly the given labels (order-insensitive). The second return
// is false when no such series exists.
func (f *ParsedFamily) Value(sampleName string, labels ...Label) (float64, bool) {
	want := labelKey(labels)
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name == sampleName && labelKey(s.Labels) == want {
			return s.Value, true
		}
	}
	return 0, false
}

// Total sums every plain sample of the family (samples named exactly
// like the family — for histograms that excludes the derived _bucket/
// _sum/_count series). For a counter family with one series per label
// set this is the family-wide total, the quantity scrape-delta reports
// care about.
func (f *ParsedFamily) Total() float64 {
	var sum float64
	for i := range f.Samples {
		if f.Samples[i].Name == f.Name {
			sum += f.Samples[i].Value
		}
	}
	return sum
}

// Exposition is a parsed Prometheus text exposition: families in first-
// appearance order, each holding its samples in input order. Parsing
// then re-emitting an exposition rendered by this package is
// byte-identical; foreign expositions (comments, blank lines,
// non-canonical float spellings) reach a fixed point after one
// parse→emit cycle.
type Exposition struct {
	Families []*ParsedFamily

	byName map[string]*ParsedFamily
}

// Family returns the named family, or nil when absent.
func (e *Exposition) Family(name string) *ParsedFamily {
	return e.byName[name]
}

// FamilyNames returns every family name in first-appearance order.
func (e *Exposition) FamilyNames() []string {
	names := make([]string, len(e.Families))
	for i, f := range e.Families {
		names[i] = f.Name
	}
	return names
}

// CounterDeltas returns after.Total() - before.Total() for every
// counter-typed family present in after, keyed by family name and
// skipping zero deltas. Families absent from before count from zero, so
// a scrape taken mid-run diffs cleanly against one taken at start.
func CounterDeltas(before, after *Exposition) map[string]float64 {
	out := map[string]float64{}
	for _, f := range after.Families {
		if f.Type != "counter" {
			continue
		}
		var base float64
		if before != nil {
			if bf := before.Family(f.Name); bf != nil {
				base = bf.Total()
			}
		}
		//lint:allow floateq exact-zero delta filter: counters that did not move
		if d := f.Total() - base; d != 0 {
			out[f.Name] = d
		}
	}
	return out
}

// ParseExposition parses a Prometheus text exposition (format version
// 0.0.4) into its families and samples, enforcing the line syntax:
// comment syntax, metric/label name charsets, label escaping, parseable
// values, optional timestamps, and at most one TYPE per family declared
// before its first sample. The cross-series contract (duplicates,
// counter signs, histogram shape) is Validate's job. Plain comments and
// blank lines are dropped. Syntax errors carry an "obs: line N:" prefix.
func ParseExposition(b []byte) (*Exposition, error) {
	e := &Exposition{byName: map[string]*ParsedFamily{}}
	text := string(b)
	if text != "" && !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("obs: exposition must end with a newline")
	}
	for i, line := range strings.Split(text, "\n") {
		if err := e.parseLine(line); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", i+1, err)
		}
	}
	return e, nil
}

// family returns (creating if needed) the family record for name.
func (e *Exposition) family(name string) *ParsedFamily {
	if f := e.byName[name]; f != nil {
		return f
	}
	f := &ParsedFamily{Name: name}
	e.byName[name] = f
	e.Families = append(e.Families, f)
	return f
}

func (e *Exposition) parseLine(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return e.parseComment(line)
	}
	return e.parseSample(line)
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		return nil // plain comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE needs a metric name and a type")
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		f := e.family(name)
		if f.HasType {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if len(f.Samples) > 0 || typ == "histogram" && e.derivedSampled(name) {
			return fmt.Errorf("TYPE for %s after its first sample", name)
		}
		f.Type, f.HasType = typ, true
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("HELP needs a metric name")
		}
		name := fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in HELP", name)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		f := e.family(name)
		f.Help, f.HasHelp = unescapeHelp(help), true
	}
	return nil
}

var histogramSuffixes = [...]string{"_bucket", "_sum", "_count"}

// derivedSampled reports whether a sample named like one of the
// histogram series derived from name was already filed under its own
// name. Declaring name a histogram after that would file the same line
// under name on a re-parse of the emitted text, so it counts as a TYPE
// after the family's first sample.
func (e *Exposition) derivedSampled(name string) bool {
	for _, sfx := range histogramSuffixes {
		if f := e.byName[name+sfx]; f != nil {
			for i := range f.Samples {
				if f.Samples[i].Name == f.Name {
					return true
				}
			}
		}
	}
	return false
}

// histogramFamily maps a sample name to its family: when a declared
// histogram family matches the name minus a _bucket/_sum/_count
// suffix, the sample belongs to that family.
func (e *Exposition) histogramFamily(name string) string {
	for _, sfx := range histogramSuffixes {
		base, ok := strings.CutSuffix(name, sfx)
		if f := e.byName[base]; ok && f != nil && f.Type == "histogram" {
			return base
		}
	}
	return name
}

func (e *Exposition) parseSample(line string) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return fmt.Errorf("metric %s: %w", name, err)
	}
	valueText, timestamp, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if valueText == "" {
		return fmt.Errorf("metric %s: missing value", name)
	}
	value, err := strconv.ParseFloat(valueText, 64)
	if err != nil {
		return fmt.Errorf("metric %s: bad value %q", name, valueText)
	}
	f := e.family(e.histogramFamily(name))
	f.Samples = append(f.Samples, ParsedSample{
		Name:      name,
		Labels:    labels,
		Value:     value,
		Timestamp: strings.TrimSpace(timestamp),
	})
	return nil
}

// splitName cuts the metric name off the front of a sample line,
// returning the remainder (label block and/or value).
func splitName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// parseLabels parses an optional {name="value",...} block in input
// order, handling escaped quotes, backslashes and newlines in values
// and rejecting a repeated label name.
func parseLabels(s string) ([]Label, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	var labels []Label
	i := 1
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		lname := strings.TrimSpace(s[start:i])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		for _, l := range labels {
			if l.Name == lname {
				return nil, "", fmt.Errorf("duplicate label %q", lname)
			}
		}
		i++ // consume '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value must be quoted", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", lname, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		return nil, "", fmt.Errorf("label %s: expected ',' or '}'", lname)
	}
}

// unescapeHelp reverses escapeHelp.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// WritePrometheus re-emits the exposition in the text format: families
// in parse order, HELP then TYPE (when present) then samples in parse
// order. Emitting output of this package's renderer reproduces it
// byte for byte.
func (e *Exposition) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range e.Families {
		if f.HasHelp {
			b.WriteString("# HELP ")
			b.WriteString(f.Name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.Help))
			b.WriteByte('\n')
		}
		if f.HasType {
			b.WriteString("# TYPE ")
			b.WriteString(f.Name)
			b.WriteByte(' ')
			b.WriteString(f.Type)
			b.WriteByte('\n')
		}
		for i := range f.Samples {
			s := &f.Samples[i]
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for j, l := range s.Labels {
					if j > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabelValue(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			if s.Timestamp != "" {
				b.WriteByte(' ')
				b.WriteString(s.Timestamp)
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
