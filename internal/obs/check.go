package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckExposition validates a Prometheus text-format exposition without
// promtool: it is the malformed-lines gate the CI smoke job and
// proxload run against a live /metrics scrape. It verifies, line by
// line:
//
//   - HELP/TYPE comments are well formed and TYPE names a known kind;
//   - every sample line parses as name, optional {labels}, and a float
//     value, with legal metric and label names and closed quotes;
//   - a sample's family, when TYPEd, matches the declared kind
//     (histogram samples must be _bucket/_sum/_count);
//   - histogram bucket series are cumulative in le order, end with a
//     +Inf bucket, and agree with the _count sample;
//   - no duplicate sample lines (same name and label set).
//
// The first violation is returned as an error naming the line number.
func CheckExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	types := map[string]Kind{}
	seen := map[string]int{} // full sample identity -> line no
	type bucketKey struct {
		family string
		labels string // labels minus le
	}
	type bucketSeries struct {
		les    []float64
		counts []int64
		count  int64 // from _count
		hasCnt bool
	}
	buckets := map[bucketKey]*bucketSeries{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			name, kind, ok := parseComment(text)
			if !ok {
				return fmt.Errorf("line %d: malformed comment %q", line, text)
			}
			if kind != "" { // a TYPE line
				k := Kind(kind)
				if k != KindCounter && k != KindGauge && k != KindHistogram && kind != "summary" && kind != "untyped" {
					return fmt.Errorf("line %d: unknown TYPE %q for %q", line, kind, name)
				}
				types[name] = k
			}
			continue
		}
		sample, err := ParseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		name, labels, value := sample.Name, sample.Labels, sample.Value
		ident := name + labelIdentity(labels)
		if prev, dup := seen[ident]; dup {
			return fmt.Errorf("line %d: duplicate sample %s (first at line %d)", line, ident, prev)
		}
		seen[ident] = line
		fam, suffix := familyOf(name, types)
		if k, ok := types[fam]; ok && k == KindHistogram {
			if suffix == "" {
				return fmt.Errorf("line %d: histogram %q has plain sample %q (want _bucket/_sum/_count)", line, fam, name)
			}
			key := bucketKey{family: fam, labels: labelIdentityExcept(labels, "le")}
			s := buckets[key]
			if s == nil {
				s = &bucketSeries{}
				buckets[key] = s
			}
			switch suffix {
			case "_bucket":
				le, ok := sample.Label("le")
				if !ok {
					return fmt.Errorf("line %d: histogram bucket %q lacks an le label", line, name)
				}
				ub, perr := parseLe(le)
				if perr != nil {
					return fmt.Errorf("line %d: %v", line, perr)
				}
				s.les = append(s.les, ub)
				s.counts = append(s.counts, int64(value))
			case "_count":
				s.count = int64(value)
				s.hasCnt = true
			}
		}
		if math.IsNaN(value) && types[fam] == KindCounter {
			return fmt.Errorf("line %d: counter %q has NaN value", line, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading exposition: %w", err)
	}
	for key, s := range buckets {
		if len(s.les) == 0 {
			return fmt.Errorf("histogram %s%s has no buckets", key.family, key.labels)
		}
		order := make([]int, len(s.les))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return s.les[order[a]] < s.les[order[b]] })
		prev := int64(-1)
		for _, i := range order {
			if s.counts[i] < prev {
				return fmt.Errorf("histogram %s%s buckets are not cumulative at le=%v", key.family, key.labels, s.les[i])
			}
			prev = s.counts[i]
		}
		last := order[len(order)-1]
		if !math.IsInf(s.les[last], 1) {
			return fmt.Errorf("histogram %s%s lacks a +Inf bucket", key.family, key.labels)
		}
		if s.hasCnt && s.counts[last] != s.count {
			return fmt.Errorf("histogram %s%s: +Inf bucket %d != _count %d", key.family, key.labels, s.counts[last], s.count)
		}
	}
	return nil
}

// parseComment handles # HELP and # TYPE lines; other comments pass
// through. Returns the metric name and, for TYPE lines, the kind.
func parseComment(text string) (name, kind string, ok bool) {
	switch {
	case strings.HasPrefix(text, "# HELP "):
		rest := strings.TrimPrefix(text, "# HELP ")
		sp := strings.IndexByte(rest, ' ')
		if sp <= 0 {
			// HELP with no text is legal; the name must still be valid.
			if !validName(rest) {
				return "", "", false
			}
			return rest, "", true
		}
		if !validName(rest[:sp]) {
			return "", "", false
		}
		return rest[:sp], "", true
	case strings.HasPrefix(text, "# TYPE "):
		rest := strings.TrimPrefix(text, "# TYPE ")
		fields := strings.Fields(rest)
		if len(fields) != 2 || !validName(fields[0]) {
			return "", "", false
		}
		return fields[0], fields[1], true
	default:
		return "", "", true // arbitrary comment
	}
}

// Label is one parsed name="value" pair, the value unescaped.
type Label struct{ Name, Value string }

// Sample is one sample line of an exposition.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label fetches a label's value by name.
func (s Sample) Label(name string) (string, bool) {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// ParseSample splits one sample line — name, optional {labels}, value,
// optional timestamp — into its parts. It is the parser CheckExposition
// runs on every line, exported so a scraper reads an exposition exactly
// as the checker does.
func ParseSample(text string) (Sample, error) {
	i := strings.IndexAny(text, "{ ")
	if i <= 0 {
		return Sample{}, fmt.Errorf("malformed sample %q", text)
	}
	s := Sample{Name: text[:i]}
	if !validName(s.Name) {
		return Sample{}, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := text[i:]
	if rest[0] == '{' {
		end, ls, err := parseLabels(rest)
		if err != nil {
			return Sample{}, err
		}
		s.Labels = ls
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return Sample{}, fmt.Errorf("malformed sample value in %q", text)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return Sample{}, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at s[0] == '{',
// returning the index just past the closing brace.
func parseLabels(s string) (int, []Label, error) {
	var labels []Label
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("unterminated label block %q", s)
		}
		name := s[i : i+eq]
		if !validName(name) && name != "le" {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %q value is not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("label %q value is unterminated", name)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("label %q value has a dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %q value has bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
	}
}

// parseValue parses a sample value, accepting the Prometheus special
// spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "Nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLe parses a bucket upper bound.
func parseLe(s string) (float64, error) {
	v, err := parseValue(s)
	if err != nil {
		return 0, fmt.Errorf("bad le value %q: %v", s, err)
	}
	return v, nil
}

// familyOf strips a histogram sample suffix when the base family is
// TYPEd as a histogram.
func familyOf(name string, types map[string]Kind) (family, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, sfx)
		if base != name {
			if k, ok := types[base]; ok && k == KindHistogram {
				return base, sfx
			}
		}
	}
	return name, ""
}

// labelIdentity renders labels sorted by name for duplicate detection.
func labelIdentity(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Name < ls[b].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString("=")
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// labelIdentityExcept is labelIdentity with one label dropped (used to
// group histogram buckets across le).
func labelIdentityExcept(labels []Label, drop string) string {
	kept := labels[:0:0]
	for _, l := range labels {
		if l.Name != drop {
			kept = append(kept, l)
		}
	}
	return labelIdentity(kept)
}
