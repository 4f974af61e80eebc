package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalysisSmallRun(t *testing.T) {
	var out bytes.Buffer
	err := Analysis([]string{"-n", "120", "-p", "4", "-top", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"msg=\"graph ready\" vertices=120", "top 3 by closeness", "rc steps:", "simulated parallel time"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestAnalysisWorkersPool runs the same analysis sequentially and with a
// 4-core pool: the top-k report (the user-visible result) must be identical,
// and an invalid pool size must be rejected.
func TestAnalysisWorkersPool(t *testing.T) {
	report := func(workers string) string {
		t.Helper()
		var out bytes.Buffer
		if err := Analysis([]string{"-n", "120", "-p", "4", "-top", "5", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		return s[strings.Index(s, "top 5"):strings.Index(s, "rc steps")]
	}
	if seq, par := report("1"), report("4"); seq != par {
		t.Fatalf("pooled report diverged:\nworkers=1:\n%s\nworkers=4:\n%s", seq, par)
	}
	var out bytes.Buffer
	if err := Analysis([]string{"-n", "50", "-workers", "0"}, &out); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("workers=0 not rejected: %v", err)
	}
}

// TestAnalysisFaultyWireMatchesSim injects wire faults into a tcp run. A
// failed round costs a step rollback that the batch CLI retries, so the
// report — top-k and rc step count — must match the fault-free sim run.
func TestAnalysisFaultyWireMatchesSim(t *testing.T) {
	report := func(args ...string) (out, top, steps string) {
		t.Helper()
		var buf bytes.Buffer
		if err := Analysis(append([]string{"-n", "120", "-p", "4", "-top", "5"}, args...), &buf); err != nil {
			t.Fatal(err)
		}
		out = buf.String()
		return out, out[strings.Index(out, "top 5"):strings.Index(out, "rc steps")], strings.Fields(out[strings.Index(out, "rc steps"):])[2]
	}
	_, simTop, simSteps := report()
	out, wireTop, wireSteps := report("-runtime", "tcp", "-fault-rate", "0.5", "-fault-seed", "2")
	if !strings.Contains(out, "exchange round failed; retrying") {
		t.Fatalf("the fault schedule never failed a round:\n%s", out)
	}
	if wireTop != simTop || wireSteps != simSteps {
		t.Fatalf("faulty wire report diverged from sim:\nsim (%s steps):\n%s\nwire (%s steps):\n%s", simSteps, simTop, wireSteps, wireTop)
	}
}

func TestAnalysisHarmonicAnytime(t *testing.T) {
	var out bytes.Buffer
	err := Analysis([]string{"-n", "100", "-p", "4", "-harmonic", "-anytime", "-gen", "er"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "harmonic closeness") || !strings.Contains(s, "rows_sent=") {
		t.Fatalf("missing harmonic/anytime output:\n%s", s)
	}
}

func TestAnalysisWithChangeLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "changes.log")
	content := "@1\naddedge 0 40 2\n@2\naddvertex newbie\nattach newbie 3 1\n"
	if err := os.WriteFile(logPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := Analysis([]string{"-n", "80", "-p", "4", "-changes", logPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "msg=\"replaying change log\" batches=2") {
		t.Fatalf("replay banner missing:\n%s", out.String())
	}
}

func TestAnalysisTraceFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	var out bytes.Buffer
	if err := Analysis([]string{"-n", "80", "-p", "4", "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "step,messages") {
		t.Fatalf("trace file malformed: %.60s", data)
	}
}

func TestAnalysisServe(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "changes.log")
	content := "@1\naddedge 0 40 2\n@2\naddvertex newbie\nattach newbie 3 1\n@4\ndeledge 0 40\n"
	if err := os.WriteFile(logPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonlPath := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	err := Analysis([]string{"-n", "80", "-p", "4", "-serve", "-changes", logPath,
		"-publish-every", "1", "-trace-jsonl", jsonlPath, "-top", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"batches=3", "msg=epoch", "state=converged", "top 3 by closeness", "rc steps:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("serve output missing %q:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type":"step"`, `"kind":"epoch"`, `"kind":"mutation"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("jsonl trace missing %q: %.200s", want, data)
		}
	}
}

func TestAnalysisServeStepBudget(t *testing.T) {
	var out bytes.Buffer
	err := Analysis([]string{"-n", "150", "-p", "4", "-serve", "-step-budget", "1", "-top", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "state=exhausted") {
		t.Fatalf("budget-limited serve run did not report exhaustion:\n%s", out.String())
	}
}

// TestAnalysisTraceWriteError: a trace sink that cannot be written must fail
// the command, not be silently swallowed (the run's other output is fine, so
// the error surfaces in the exit path).
func TestAnalysisTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	var out bytes.Buffer
	err := Analysis([]string{"-n", "60", "-p", "4", "-trace", "/dev/full"}, &out)
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("trace write failure not propagated: %v", err)
	}
	out.Reset()
	err = Analysis([]string{"-n", "60", "-p", "4", "-trace-jsonl", "/dev/full"}, &out)
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("jsonl trace write failure not propagated: %v", err)
	}
}

func TestAnalysisErrors(t *testing.T) {
	var out bytes.Buffer
	if err := Analysis([]string{"-gen", "nope"}, &out); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if err := Analysis([]string{"-partitioner", "nope"}, &out); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if err := Analysis([]string{"-graph", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing graph file accepted")
	}
	if err := Analysis([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := Analysis([]string{"-n", "60", "-changes", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing change log accepted")
	}
	if err := Analysis([]string{"-log-level", "nope"}, &out); err == nil {
		t.Fatal("unknown log level accepted")
	}
	if err := Analysis([]string{"-linger", "1s"}, &out); err == nil {
		t.Fatal("-linger without -serve or -obs-addr accepted")
	}
	if err := Analysis([]string{"-ingest", "10"}, &out); err == nil {
		t.Fatal("-ingest without -serve accepted")
	}
	if err := Analysis([]string{"-serve", "-ingest-rate", "5"}, &out); err == nil {
		t.Fatal("-ingest-rate without -ingest accepted")
	}
	if err := Analysis([]string{"-serve", "-ingest", "10", "-ingest-policy", "nope"}, &out); err == nil {
		t.Fatal("unknown -ingest-policy accepted")
	}
	if err := Analysis([]string{"-serve", "-ingest-queue", "-1"}, &out); err == nil {
		t.Fatal("negative -ingest-queue accepted")
	}
}

// TestAnalysisServeIngest drives the sustained-ingestion mode end to end:
// a generated churn stream flows through the asynchronous mutation queue
// while the session converges, and the run reports its throughput.
func TestAnalysisServeIngest(t *testing.T) {
	var out bytes.Buffer
	err := Analysis([]string{"-n", "80", "-p", "4", "-serve", "-ingest", "200",
		"-ingest-queue", "64", "-top", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sustained ingest: 200 ops", "mutations/sec", "state=converged", "top 3 by closeness"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ingest serve output missing %q:\n%s", want, s)
		}
	}
}

// TestAnalysisServeIngestErrorPolicy: under -ingest-policy error a stalled or
// slow engine drops ops instead of blocking the producer; the run must still
// finish cleanly and report the rejected count.
func TestAnalysisServeIngestErrorPolicy(t *testing.T) {
	var out bytes.Buffer
	err := Analysis([]string{"-n", "80", "-p", "4", "-serve", "-ingest", "150",
		"-ingest-queue", "4", "-ingest-policy", "error", "-top", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rejected") {
		t.Fatalf("error-policy ingest run missing rejected count:\n%s", out.String())
	}
}

func TestBenchListAndSingle(t *testing.T) {
	var out bytes.Buffer
	if err := Bench([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig4") || !strings.Contains(out.String(), "ext1") {
		t.Fatalf("experiment list incomplete:\n%s", out.String())
	}
	out.Reset()
	if err := Bench([]string{"-experiment", "qual1", "-n", "200", "-p", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "QUAL-1") || !strings.Contains(out.String(), "all experiments done") {
		t.Fatalf("qual1 output wrong:\n%s", out.String())
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := Bench([]string{"-experiment", "nope", "-n", "100"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestGraphGenToFileAndFormats(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	edges := filepath.Join(dir, "g.edges")
	if err := GraphGen([]string{"-type", "ba", "-n", "100", "-o", edges}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "msg=\"graph written\" vertices=100") {
		t.Fatalf("summary missing: %s", stderr.String())
	}
	data, err := os.ReadFile(edges)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# vertices 100") {
		t.Fatalf("edge list header missing: %.40s", data)
	}
	// Pajek to stdout.
	stdout.Reset()
	if err := GraphGen([]string{"-type", "star", "-n", "5", "-format", "pajek"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "*Vertices 5") {
		t.Fatalf("pajek output wrong:\n%s", stdout.String())
	}
	// The generated file round-trips into an analysis.
	var out bytes.Buffer
	if err := Analysis([]string{"-graph", edges, "-p", "4", "-top", "2"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestGraphGenMetisFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.graph")
	var stdout, stderr bytes.Buffer
	if err := GraphGen([]string{"-type", "ba", "-n", "90", "-format", "metis", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	// .graph extension routes through the METIS reader.
	var out bytes.Buffer
	if err := Analysis([]string{"-graph", path, "-p", "4", "-top", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vertices=90") {
		t.Fatalf("metis graph not loaded:\n%s", out.String())
	}
}

func TestGraphGenPajekRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.net")
	var stdout, stderr bytes.Buffer
	if err := GraphGen([]string{"-type", "ba", "-n", "70", "-format", "pajek", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Analysis([]string{"-graph", path, "-p", "4", "-top", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vertices=70") {
		t.Fatalf("pajek graph not loaded:\n%s", out.String())
	}
}

func TestGraphGenAllTypes(t *testing.T) {
	for _, typ := range []string{"ba", "er", "ws", "sbm", "community", "rmat", "grid", "star", "path"} {
		var stdout, stderr bytes.Buffer
		n := "64"
		if typ == "grid" {
			n = "8" // grid interprets -n as side length
		}
		if err := GraphGen([]string{"-type", typ, "-n", n}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
	}
}

func TestGraphGenErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := GraphGen([]string{"-type", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown type accepted")
	}
	if err := GraphGen([]string{"-format", "nope", "-n", "10"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestPartBenchTable(t *testing.T) {
	var out bytes.Buffer
	if err := PartBench([]string{"-n", "300", "-p", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"multilevel", "bfsgrow", "roundrobin", "hash", "cut-edges"} {
		if !strings.Contains(s, want) {
			t.Fatalf("partbench output missing %q:\n%s", want, s)
		}
	}
}

func TestPartBenchFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	var stdout, stderr bytes.Buffer
	if err := GraphGen([]string{"-type", "ba", "-n", "150", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := PartBench([]string{"-graph", path, "-p", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "150 vertices") {
		t.Fatalf("file graph not used:\n%s", out.String())
	}
}

func TestPartBenchMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := PartBench([]string{"-graph", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadOrGenerateKinds(t *testing.T) {
	for _, kind := range []string{"ba", "er", "ws", "sbm", "community", "rmat"} {
		g, err := LoadOrGenerate("", kind, 80, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumVertices() < 60 {
			t.Fatalf("%s produced only %d vertices", kind, g.NumVertices())
		}
	}
	if _, err := LoadOrGenerate("", "nope", 10, 1, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPickPartitionerKinds(t *testing.T) {
	for _, name := range []string{"multilevel", "bfsgrow", "roundrobin", "hash"} {
		p, err := PickPartitioner(name, 1)
		if err != nil || p == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := PickPartitioner("nope", 1); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}

// TestAnalysisReportHeaderCount: the report header states how many vertices
// were actually ranked, not the requested -top, when the graph is smaller.
func TestAnalysisReportHeaderCount(t *testing.T) {
	var out bytes.Buffer
	if err := Analysis([]string{"-n", "30", "-p", "2", "-top", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "top 30 by closeness") {
		t.Fatalf("header should count the 30 ranked vertices, not the requested 50:\n%s", s)
	}
	if strings.Contains(s, "top 50") {
		t.Fatalf("header still echoes the requested -top:\n%s", s)
	}
	// A negative -top degrades to an empty ranking instead of panicking.
	out.Reset()
	if err := Analysis([]string{"-n", "30", "-p", "2", "-top", "-5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top 0 by closeness") {
		t.Fatalf("negative -top should rank nothing:\n%s", out.String())
	}
}
