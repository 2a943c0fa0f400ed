package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryWorkloadPrintsEveryMetric runs each declared workload at the
// shortest length, untraced and traced, and checks the result line
// carries exactly the declared metrics with their declared units.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range d.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range d.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1",
				"--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, attempted %d", w.Name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %d: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
			}
		}
	}
}

// TestDuplicateNamesFailTheRun feeds the service a Decoder that reuses
// one application name: the replies no longer admit what was asked for,
// and the run must fail instead of reporting numbers.
func TestDuplicateNamesFailTheRun(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: time.Second, workdir: t.TempDir(), dupNames: true}
	_, err := runAdmit(cfg, warmParams)
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("run with a name-reusing decoder: err = %v, want a failed output check", err)
	}
}

// TestSelfTimes checks self time is a span's duration minus the union of
// its children, and that overlapping children break the sum check.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	root := tr.add("front", 1, 0, at(0), at(1000))
	tr.add("front.decode", 1, root, at(100), at(200))
	st := tr.add("stream", 1, root, at(200), at(900))
	tr.add("manager", 1, st, at(300), at(800))
	selfs := tr.selfTimes("front")
	if len(selfs) != 1 {
		t.Fatalf("%d requests, want 1", len(selfs))
	}
	got := selfs[0].layer
	if got["front"] != 300 || got["stream"] != 200 || got["manager"] != 500 {
		t.Fatalf("self times %v, want front 300, stream 200, manager 500", got)
	}
	if _, err := maxSelfSumErr(selfs, selfSumTol); err != nil {
		t.Fatal(err)
	}

	// A second backend span overlapping the first is time counted twice.
	tr.add("manager", 1, st, at(350), at(850))
	if _, err := maxSelfSumErr(tr.selfTimes("front"), selfSumTol); err == nil {
		t.Fatal("overlapping sibling spans passed the self-time sum check")
	}
}
