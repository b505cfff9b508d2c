package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// benchSpec is the part of BENCHMARK.json that judges results: each
// metric's direction and, for end-to-end metrics, the share of the
// parent's median by which it may worsen.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (map[string]specMetric, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]specMetric{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// record is one run as -out stores it.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Started  time.Time `json:"started"`
	Result   result    `json:"result"`
}

func appendRecord(dir, workload string, seed int64, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(record{Workload: workload, Seed: seed, Started: time.Now().UTC(), Result: res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(dir, workload string) ([]record, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s/%s.jsonl: %w", dir, workload, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// worseShare is how much worse b is than a, as a share of a, for a metric
// whose better direction is given ("lower" or "higher").
func worseShare(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// verdict classifies a change against its parent for one metric, by the
// rule for a small sandbox: a gain needs at least ten pairs, the change
// winning nine tenths of them (ties count for neither), and medians apart
// by more than the parent's own quartile spread. A loss is a median worse
// by more than the bound. Anything else is unchanged, unless the parent's
// spread is wider than the bound — then it is unresolved, except when
// every change run beats every parent run.
func verdict(better string, bound *float64, parent, change []float64) string {
	pairs := min(len(parent), len(change))
	if pairs < 10 {
		return "unresolved (fewer than 10 pairs)"
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if worseShare(better, parent[i], change[i]) < 0 {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	if wins*10 >= pairs*9 && math.Abs(mc-mp) > iqr {
		return "improved"
	}
	if bound == nil {
		return "unresolved (no bound)"
	}
	if worseShare(better, mp, mc) > *bound {
		return "worse"
	}
	if mp != 0 && iqr/math.Abs(mp) > *bound {
		dominates := true
		for _, p := range parent {
			for _, c := range change {
				if worseShare(better, p, c) >= 0 {
					dominates = false
				}
			}
		}
		if dominates {
			return "improved"
		}
		return "unresolved (parent spread wider than the bound)"
	}
	return "unchanged"
}

// runCompare prints one row per workload and metric for two directories
// of -out records: the parent's and the change's.
func runCompare(w io.Writer, parentDir, changeDir string) error {
	root, err := os.Getwd()
	if err == nil {
		root, err = findRoot(root)
	}
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-28s %12s %12s %12s %12s %12s %12s  %s\n",
		"workload", "metric", "parent p50", "parent q1", "parent q3", "change p50", "change q1", "change q3", "verdict")
	for _, name := range workloadNames() {
		pr, perr := readRecords(parentDir, name)
		cr, cerr := readRecords(changeDir, name)
		if os.IsNotExist(perr) && os.IsNotExist(cerr) {
			continue
		}
		if perr != nil {
			return perr
		}
		if cerr != nil {
			return cerr
		}
		if !alternating(pr, cr) {
			fmt.Fprintf(w, "%-13s note: parent and change runs do not alternate in time\n", name)
		}
		for _, mname := range sortedKeys(pr[0].Result.Metrics) {
			var pv, cv []float64
			for _, r := range pr {
				pv = append(pv, r.Result.Metrics[mname].Value)
			}
			for _, r := range cr {
				cv = append(cv, r.Result.Metrics[mname].Value)
			}
			sm, ok := spec[mname]
			if !ok {
				sm = specMetric{Better: "lower"}
			}
			p1, p3 := quartiles(pv)
			c1, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-13s %-28s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g  %s\n",
				name, mname, median(pv), p1, p3, median(cv), c1, c3, verdict(sm.Better, sm.Bound, pv, cv))
		}
	}
	return nil
}

// alternating reports whether the i-th parent and change runs swap order
// from one pair to the next.
func alternating(parent, change []record) bool {
	pairs := min(len(parent), len(change))
	for i := 1; i < pairs; i++ {
		prev := parent[i-1].Started.Before(change[i-1].Started)
		cur := parent[i].Started.Before(change[i].Started)
		if prev == cur {
			return false
		}
	}
	return true
}

// printSpread summarises repeated runs of one workload: each metric's
// median, quartile spread and full range as shares of the median, against
// its bound in BENCHMARK.json.
func printSpread(w io.Writer, root, workload string, results []result) {
	spec, err := loadSpec(root)
	if err != nil {
		spec = map[string]specMetric{}
	}
	fmt.Fprintf(w, "spread of %d runs of %s\n", len(results), workload)
	fmt.Fprintf(w, "  %-32s %12s %10s %10s %8s  %s\n", "metric", "median", "IQR/med", "range/med", "bound", "status")
	for _, name := range sortedKeys(results[0].Metrics) {
		var vs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range results {
			v := r.Metrics[name].Value
			vs = append(vs, v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		m := median(vs)
		q1, q3 := quartiles(vs)
		iqr, rng := math.NaN(), math.NaN()
		if m != 0 {
			iqr, rng = (q3-q1)/math.Abs(m), (hi-lo)/math.Abs(m)
		}
		status, bound := "-", "-"
		if b := spec[name].Bound; b != nil {
			bound = fmt.Sprintf("%.2f", *b)
			switch {
			case iqr <= *b/3:
				status = "steady"
			case iqr <= *b:
				status = "within bound"
			default:
				status = "WIDER THAN BOUND"
			}
		}
		fmt.Fprintf(w, "  %-32s %12.4f %10.3f %10.3f %8s  %s\n", name, m, iqr, rng, bound, status)
	}
}
