package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// recordedMetric is a metric as -results stores it: the value plus what
// -compare needs to judge a delta without this binary's catalogue.
type recordedMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // 0 for per-layer metrics
}

// record is one run in a -results file (JSON lines).
type record struct {
	Workload string                    `json:"workload"`
	Seed     int64                     `json:"seed"`
	Trace    bool                      `json:"trace"`
	Correct  bool                      `json:"correct"`
	Metrics  map[string]recordedMetric `json:"metrics"`
}

func newRecord(w *workload, opts options, res *result) record {
	rec := record{Workload: w.name, Seed: opts.seed, Trace: opts.trace, Correct: res.Correct,
		Metrics: make(map[string]recordedMetric, len(res.Metrics))}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if m, ok := res.Metrics[d.name]; ok {
				rec.Metrics[d.name] = recordedMetric{m.Value, d.unit, d.better, d.bound}
			}
		}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series is every run's value of one (workload, metric) in one file.
type series struct {
	def    recordedMetric
	values []float64
}

type seriesKey struct{ workload, metric string }

func readResults(path string) (map[seriesKey]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[seriesKey]*series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, m := range rec.Metrics {
			k := seriesKey{rec.Workload, name}
			if out[k] == nil {
				out[k] = &series{def: m}
			}
			out[k].values = append(out[k].values, m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first, second and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) defines them (the exclusive method), so a
// spread computed here matches the acceptance harness's. One value has no
// spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		p := float64(i) * float64(m+1) / 4
		j := min(max(int(p), 1), m-1)
		return s[j-1] + (p-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, per (workload, metric) present in both result
// files, the medians, the direction-aware change of b against a, the
// run-to-run spread, and a verdict against the bound stored in the file:
//
//	unchanged   b's median is no worse than a's by more than the bound
//	WORSE       it is
//	better      it improved by more than the bound
//	UNRESOLVED  either side's interquartile spread is wider than the bound,
//	            so the runs cannot show the metric moved or held
//
// Per-layer metrics carry no bound and get no verdict. It reports whether
// any end-to-end metric was WORSE or UNRESOLVED.
func compareFiles(w io.Writer, pathA, pathB string) (flagged bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	var keys []seriesKey
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		// End-to-end metrics (bounded) first, then by name.
		bi, bj := a[keys[i]].def.Bound > 0, a[keys[j]].def.Bound > 0
		if bi != bj {
			return bi
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-24s %-38s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict")
	for _, k := range keys {
		sa, sb := a[k], b[k]
		a1, am, a3 := quartiles(sa.values)
		b1, bm, b3 := quartiles(sb.values)
		var worse, spread float64
		if am != 0 {
			worse = (bm - am) / am
			if sa.def.Better == "higher" {
				worse = -worse
			}
			spread = max(a3-a1, b3-b1) / am
		} else if bm != 0 {
			worse = 1
		}
		verdict, bound := "", "-"
		if d := sa.def; d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			switch {
			case spread > d.Bound:
				verdict, flagged = "UNRESOLVED", true
			case worse > d.Bound:
				verdict, flagged = "WORSE", true
			case worse < -d.Bound:
				verdict = "better"
			default:
				verdict = "unchanged"
			}
		}
		fmt.Fprintf(w, "%-24s %-38s %14.4f %14.4f %+8.2f%% %7.2f%% %6s  %s (n=%d,%d)\n",
			k.workload, k.metric, am, bm, worse*100, spread*100, bound, verdict, len(sa.values), len(sb.values))
	}
	return flagged, nil
}
