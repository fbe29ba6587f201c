package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ScrapeResult is one member's /metrics scrape as collected by the
// coordinator before federation. Err non-nil (or a nil Body with no
// error, for members that expose no scrapeable endpoint) marks the
// member down/unscrapeable; Body is the raw text exposition otherwise.
type ScrapeResult struct {
	Node string
	Body []byte
	Err  error
}

// mergedFamily accumulates one metric family across all scraped nodes.
type mergedFamily struct {
	name  string
	typ   string
	help  string
	lines []string // fully rendered sample lines, node label applied
}

// MergeExpositions re-renders per-node Prometheus text expositions as
// one valid exposition document (DESIGN.md §13): families are merged by
// name with a single # HELP/# TYPE header each, every sample line gains
// a leading node="…" label, and two synthesized gauge families report
// scrape health — geomob_member_up{node=…} 0|1 and
// geomob_member_scrape_errors{node=…}. A failed scrape degrades to its
// down markers; the healthy members' series still render.
func MergeExpositions(w io.Writer, results []ScrapeResult) error {
	fams := map[string]*mergedFamily{}
	var order []string
	family := func(name string) *mergedFamily {
		f, ok := fams[name]
		if !ok {
			f = &mergedFamily{name: name}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}

	for _, res := range results {
		if res.Err != nil || res.Body == nil {
			continue
		}
		if err := mergeOne(res.Node, res.Body, family); err != nil {
			return fmt.Errorf("federate %s: %w", res.Node, err)
		}
	}

	sort.Strings(order)
	var buf bytes.Buffer
	for _, name := range order {
		f := fams[name]
		// The scrape-health families below are the federation's own; a
		// member's series under those names would declare them twice.
		if len(f.lines) == 0 || name == "geomob_member_up" || name == "geomob_member_scrape_errors" {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, f.help)
		}
		typ := f.typ
		if typ == "" {
			typ = "untyped"
		}
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, typ)
		for _, ln := range f.lines {
			buf.WriteString(ln)
			buf.WriteByte('\n')
		}
	}

	// Scrape-health gauges, one series per member regardless of outcome.
	fmt.Fprintf(&buf, "# HELP geomob_member_up Whether the member's metrics endpoint answered the federated scrape.\n")
	fmt.Fprintf(&buf, "# TYPE geomob_member_up gauge\n")
	for _, res := range results {
		up := 0
		if res.Err == nil && res.Body != nil {
			up = 1
		}
		fmt.Fprintf(&buf, "geomob_member_up{node=%q} %d\n", res.Node, up)
	}
	fmt.Fprintf(&buf, "# HELP geomob_member_scrape_errors Whether the federated scrape of the member failed.\n")
	fmt.Fprintf(&buf, "# TYPE geomob_member_scrape_errors gauge\n")
	for _, res := range results {
		errv := 0
		if res.Err != nil {
			errv = 1
		}
		fmt.Fprintf(&buf, "geomob_member_scrape_errors{node=%q} %d\n", res.Node, errv)
	}

	_, err := w.Write(buf.Bytes())
	return err
}

// mergeOne streams one node's exposition into the family accumulator.
// HELP/TYPE comments set the current family; sample lines attach to the
// family whose name they carry (resolving histogram/summary suffixes
// _bucket/_sum/_count to their base family when typed). A sample line
// that does not parse, a TYPE no exposition has, and a family typed
// differently by two members are errors, so whatever merges renders as
// a valid exposition.
func mergeOne(node string, body []byte, family func(string) *mergedFamily) error {
	histos := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		if !utf8.ValidString(line) {
			return fmt.Errorf("line %q is not UTF-8", line)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || !validName(fields[2], true) {
				continue
			}
			switch fields[1] {
			case "HELP":
				f := family(fields[2])
				if f.help == "" && len(fields) == 4 {
					f.help = fields[3]
				}
			case "TYPE":
				if len(fields) < 4 {
					continue
				}
				switch typ := fields[3]; typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f := family(fields[2])
					if f.typ != "" && f.typ != typ {
						return fmt.Errorf("family %s typed %s, and %s before", fields[2], typ, f.typ)
					}
					f.typ = typ
					histos[fields[2]] = typ == "histogram" || typ == "summary"
				default:
					return fmt.Errorf("malformed TYPE line %q", line)
				}
			}
			continue
		}
		name, rest, ok := splitSample(line)
		var out string
		if ok = ok && validName(name, true); ok {
			out, ok = relabel(name, rest, node)
		}
		if !ok {
			return fmt.Errorf("malformed sample line %q", line)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, found := strings.CutSuffix(name, suf); found && histos[trimmed] {
				base = trimmed
				break
			}
		}
		f := family(base)
		f.lines = append(f.lines, out)
	}
	return sc.Err()
}

// splitSample splits a sample line into the series name and the
// remainder (label block, if any, plus value). The name ends at the
// first '{' or space.
func splitSample(line string) (name, rest string, ok bool) {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '{':
			return line[:i], line[i:], i > 0
		case ' ':
			return line[:i], line[i:], i > 0
		}
	}
	return "", "", false
}

// validName reports whether s is a metric name (colons allowed) or a
// label name.
func validName(s string, colon bool) bool {
	for i, c := range s {
		if !(c == '_' || colon && c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

// relabel renders one sample line with node="…" injected as the first
// label; a member's own node label is kept as exported_node. Values are
// carried through as raw strings — federation must not reformat a
// member's numbers. ok is false unless rest, the line behind its metric
// name, is an optional {name="value",…} label block — distinct names,
// values escaping only \\, \" and \n — followed by a float value and an
// optional integer timestamp.
func relabel(name, rest, node string) (line string, ok bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{node=%q", name, node)
	if strings.HasPrefix(rest, "{") {
		seen := []string{"node"}
		i := 1
		for i < len(rest) && rest[i] != '}' {
			eq := strings.IndexByte(rest[i:], '=')
			if eq < 0 || i+eq+1 >= len(rest) || rest[i+eq+1] != '"' {
				return "", false
			}
			label := rest[i : i+eq]
			if label == "node" {
				label = "exported_node"
			}
			if !validName(label, false) || slices.Contains(seen, label) {
				return "", false
			}
			seen = append(seen, label)
			open := i + eq + 1
			for i = open + 1; i < len(rest) && rest[i] != '"'; i++ {
				if rest[i] == '\\' {
					if i++; i >= len(rest) || !strings.ContainsRune(`\"n`, rune(rest[i])) {
						return "", false
					}
				}
			}
			if i >= len(rest) {
				return "", false
			}
			b.WriteString("," + label + "=" + rest[open:i+1])
			if i++; i < len(rest) && rest[i] == ',' {
				i++
			} else if i >= len(rest) || rest[i] != '}' {
				return "", false
			}
		}
		if i >= len(rest) {
			return "", false
		}
		rest = rest[i+1:]
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' })
	if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") || len(fields) == 0 || len(fields) > 2 {
		return "", false
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", false
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", false
		}
	}
	b.WriteString("}" + rest)
	return b.String(), true
}
