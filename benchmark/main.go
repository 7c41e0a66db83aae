// Command benchmark is the repository's time-loop benchmark. For a named
// workload it builds a scenario spec from a seed, compiles it, advances
// the unchanged model.StepForward loop in fixed-length episodes for the
// requested number of seconds, checks the result, and prints one JSON
// summary line. With --trace 1 it instead repeats a short episode with
// spans recorded around the calls into each layer and probes the
// layers' entry points, and reports per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload sinker-16 --seed 3 --seconds 30 --trace 0
//	bash benchmark/run.sh --workload swarm-2rank --seed 3 --seconds 30 --trace 1
//	bash benchmark/run.sh --compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload name (sinker-16, rift-32x8x16, swarm-2rank)")
	seed := flag.Int64("seed", DefaultSeed, "input seed; the default seed is also checked against reference.json")
	seconds := flag.Float64("seconds", 30, "measurement time of one run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", "", "append the full result record as one JSON line to this file")
	updateRef := flag.String("update-reference", "", "store this run's default-seed diagnostics as the workload's reference in this file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments, parent.jsonl change.jsonl, under the bounds of ./BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("--compare wants two result files"))
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *updateRef != "" && (*seed != DefaultSeed || *trace != 0) {
		fail(fmt.Errorf("--update-reference needs the default seed and --trace 0"))
	}
	var rec *Record
	if *trace == 1 {
		rec, err = runTraced(w, *seed, *seconds)
	} else {
		rec, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fail(err)
	}
	if *updateRef != "" {
		if err := writeReference(*updateRef, w.Name, rec.Episodes[0].diags()); err != nil {
			fail(err)
		}
	}
	if *out != "" {
		if err := appendJSONLine(*out, rec); err != nil {
			fail(err)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(summary))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
