package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"fpgaflow"
)

// metricSpec is one metric entry of ../BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// tinyRun runs one workload at tiny size and requires a correct result.
func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var out, errs bytes.Buffer
	res, err := runWorkload(options{workload: workload, seed: 7, seconds: 1, trace: trace, tiny: true,
		placeEffort: 1, activityCycles: 500, workdir: t.TempDir()}, &out, &errs)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, errs.String())
	}
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed\n%s", workload, res.Failed, res.Attempted, errs.String())
	}
	return res
}

// requireMetrics checks that a result prints exactly the named metrics,
// each with its declared unit.
func requireMetrics(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestTinyRuns is the benchmark's self-test: a tiny run of every workload
// prints every metric of BENCHMARK.json with its unit, and two runs print
// identical QoR sums and failure fractions.
func TestTinyRuns(t *testing.T) {
	workloads, endToEnd, perLayer := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := tinyRun(t, w, false), tinyRun(t, w, false)
			requireMetrics(t, a, endToEnd)
			for _, m := range []string{"qor_luts", "qor_channel_width", "qor_wirelength",
				"qor_critical_path_ns", "qor_energy_pj", "ok_frac"} {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s differs between identical runs: %v vs %v", m, a.Metrics[m], b.Metrics[m])
				}
			}
			requireMetrics(t, tinyRun(t, w, true), perLayer)
		})
	}
}

// TestOracleRejectsWrongBitstream checks that the oracle is not vacuous: a
// design's bitstream passes against its own reference model and fails
// against another design's.
func TestOracleRejectsWrongBitstream(t *testing.T) {
	ds, err := synthVerifyDesigns(3, true)
	if err != nil {
		t.Fatal(err)
	}
	var adder design
	for _, d := range ds {
		if d.name == "csadd4" {
			adder = d
		}
	}
	res, err := fpgaflow.Run(adder.source, fpgaflow.Options{Seed: adder.seed})
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{opt: options{seed: 3}}
	if err := b.oracle(adder, res.Encoded); err != nil {
		t.Fatalf("oracle rejects a correct bitstream: %v", err)
	}
	wrong := adder
	wrong.ref = adderModel(4, false)
	wrong.ref.(*funcModel).fn = func(bit func(string) uint64) map[string]uint64 {
		out := map[string]uint64{"cout": 0}
		unpack(out, vec("s", 4), word(bit, vec("a", 4))^word(bit, vec("b", 4)))
		return out
	}
	if err := b.oracle(wrong, res.Encoded); err == nil {
		t.Fatal("oracle accepts an adder bitstream against an xor reference")
	}
}
