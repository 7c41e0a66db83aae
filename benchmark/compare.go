package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// definition is the part of BENCHMARK.json compare mode needs.
type definition struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) (exclusive method) computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// series collects one metric of one workload's records, ordered by seed
// then start time, so the i-th run of each side forms a pair.
func series(recs []Record, workload string, trace bool, metric string) []float64 {
	var sel []Record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace && r.Correct {
			if _, ok := r.Metrics[metric]; ok {
				sel = append(sel, r)
			}
		}
	}
	sort.SliceStable(sel, func(i, j int) bool {
		if sel[i].Seed != sel[j].Seed {
			return sel[i].Seed < sel[j].Seed
		}
		return sel[i].Start.Before(sel[j].Start)
	})
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// verdict classifies the change against the parent for one metric. With
// lower-is-better values it compares the negated values, so "better"
// always means larger below.
func verdict(parent, change []float64, lowerBetter bool, bound float64) (wins float64, v string) {
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	pairs, won := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if sign*change[i] > sign*parent[i] {
			won++
		}
	}
	if pairs > 0 {
		wins = float64(won) / float64(pairs)
	}
	p1, pm, p3 := quartiles(parent)
	c1, cm, c3 := quartiles(change)
	spread := math.Max((p3-p1)/math.Abs(pm), (c3-c1)/math.Abs(cm))
	worse := -sign * (cm - pm) / math.Abs(pm)
	all := func(better bool) bool {
		for _, c := range change {
			for _, p := range parent {
				if (sign*c > sign*p) != better || c == p {
					return false
				}
			}
		}
		return true
	}
	switch {
	case pairs == 0:
		return 0, "no data"
	case wins >= 0.9 && sign*(cm-pm) > p3-p1:
		return wins, "improved"
	case worse > bound && (spread <= bound || all(false)):
		return wins, "regressed"
	case spread > bound && !all(true):
		return wins, "unresolved"
	}
	return wins, "no worse"
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, the paired win fraction and a verdict under the
// bounds in defPath; then the per-layer medians of the traced runs.
func runCompare(w io.Writer, defPath, parentPath, changePath string) error {
	data, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tn\twins\tbound\tverdict")
	for _, wl := range workloads {
		for _, e := range def.EndToEnd {
			p, c := series(parent, wl.Name, false, e.Name), series(change, wl.Name, false, e.Name)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			wins, v := verdict(p, c, e.Better == "lower", e.Bound)
			p1, pm, p3 := quartiles(p)
			c1, cm, c3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%+.1f%%\t%d/%d\t%.2f\t%.2f\t%s\n",
				wl.Name, e.Name, pm, p1, p3, e.Unit, cm, c1, c3, e.Unit, 100*(cm-pm)/pm, len(p), len(c), wins, e.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var rows []string
	for _, wl := range workloads {
		for _, l := range def.PerLayer {
			p, c := series(parent, wl.Name, true, l.Name), series(change, wl.Name, true, l.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pm, cm := median(p), median(c)
			delta := "-"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.4g %s\t%.4g %s\t%s\n", wl.Name, l.Name, pm, l.Unit, cm, l.Unit, delta))
		}
	}
	if len(rows) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "workload\tper-layer metric\tparent median\tchange median\tdelta")
	for _, r := range rows {
		fmt.Fprint(tw, r)
	}
	return tw.Flush()
}
