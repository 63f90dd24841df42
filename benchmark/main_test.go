package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestEveryDeclaredWorkloadExists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	for _, perLayer := range []bool{false, true} {
		if _, err := declaredMetrics("../BENCHMARK.json", perLayer); err != nil {
			t.Error(err)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	err := run(options{workload: "lookup-cold", seconds: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: %v", err)
	}
}

func TestCheckDeclared(t *testing.T) {
	want := map[string]string{"a_ms": "ms", "b": "ratio"}
	ok := map[string]metric{"a_ms": {1, "ms"}, "b": {0.5, "ratio"}}
	if err := checkDeclared(ok, want); err != nil {
		t.Fatalf("matching metrics rejected: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"a_ms": {1, "ms"}},
		"undeclared": {"a_ms": {1, "ms"}, "b": {0.5, "ratio"}, "c": {1, "s"}},
		"wrong unit": {"a_ms": {1, "s"}, "b": {0.5, "ratio"}},
	} {
		if err := checkDeclared(got, want); err == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
}
