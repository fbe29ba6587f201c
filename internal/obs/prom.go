package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// writePrometheus renders every family in the registry in the
// Prometheus text exposition format (version 0.0.4): sorted families,
// each with # HELP / # TYPE headers; histograms as cumulative
// `_bucket{le=…}` series plus `_sum` and `_count`.
func (r *Registry) writePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range series {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(h)
}

func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, braced(s.labels), s.c.Value())
		return err
	case s.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, braced(s.labels), formatValue(s.gf()))
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, braced(s.labels), formatValue(s.g.Value()))
		return err
	case s.h != nil:
		return writeHistogram(w, name, s)
	}
	return nil
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writeHistogram emits cumulative buckets: each le bound reports the
// count of observations at or below it, ending at the +Inf bucket whose
// value equals _count.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	counts := h.bucketCounts()
	var cum int64
	for i, b := range h.bounds {
		cum += counts[i]
		le := strconv.FormatFloat(b, 'g', -1, 64)
		ls := joinLabels(s.labels, `le="`+le+`"`)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, ls, cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	ls := joinLabels(s.labels, `le="+Inf"`)
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, ls, cum); err != nil {
		return err
	}
	_, sum := h.countSum()
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(s.labels), strconv.FormatFloat(sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(s.labels), cum)
	return err
}

func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// Handler serves the given registries concatenated as one exposition
// document (Def first by convention, then any instance registries).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r == nil {
				continue
			}
			if err := r.writePrometheus(w); err != nil {
				return
			}
		}
	})
}
