package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"reffil/internal/telemetry"
)

// provenance is what a later run needs to compare against this one like
// for like.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	Date       string `json:"date"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Command    string `json:"command"`
}

// report is one invocation's result: the printed lines, the report file
// and the final JSON line are all rendered from it.
type report struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	// Detail holds figures behind the metrics: sample counts, and the
	// millisecond forms of the transport-only times given as shares.
	Detail map[string]float64 `json:"detail"`
	// NA explains per-layer metrics whose layer the workload does not run;
	// they are reported as 0.
	NA map[string]string `json:"not_applicable,omitempty"`
	// Federations lists the window's federations one by one.
	Federations []fedSummary `json:"federations"`
	Files       []string     `json:"files,omitempty"`
}

// fedSummary is one federation of the window.
type fedSummary struct {
	Seed       int64   `json:"seed"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	CPUS       float64 `json:"cpu_s"`
	Samples    int64   `json:"samples"`
	Jobs       int64   `json:"jobs"`
	Installed  int     `json:"installed_rounds"`
	RoundMsP50 float64 `json:"round_ms_p50"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	WireBytes  int64   `json:"wire_bytes,omitempty"`
	Error      string  `json:"error,omitempty"`
}

func newReport(w *workload, o options) *report {
	return &report{
		Provenance: provenance{
			GitSHA:     gitSHA(),
			Date:       time.Now().UTC().Format(time.RFC3339),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			CPUModel:   cpuModel(),
			Workload:   w.name,
			Seed:       o.seed,
			Seconds:    o.seconds,
			Trace:      o.trace,
			Command:    o.command,
		},
		EndToEnd: make(map[string]float64),
		Detail:   make(map[string]float64),
		NA:       make(map[string]string),
	}
}

// gitSHA is the VCS revision the benchmark was built from, when it was
// built inside a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+modified"
	}
	return sha
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// meta is the provenance as trace-file metadata.
func (r *report) meta() []telemetry.Arg {
	p := r.Provenance
	return []telemetry.Arg{
		{Key: "workload", Val: p.Workload}, {Key: "seed", Val: p.Seed},
		{Key: "git_sha", Val: p.GitSHA}, {Key: "date", Val: p.Date},
		{Key: "nproc", Val: p.NumCPU}, {Key: "gomaxprocs", Val: p.GOMAXPROCS},
		{Key: "go_version", Val: p.GoVersion}, {Key: "cpu_model", Val: p.CPUModel},
		{Key: "command", Val: p.Command},
	}
}

func (r *report) na(name, why string) { r.NA[name] = why }

// endToEnd fills the end-to-end metrics from a window and the extra
// set-up samples.
func (r *report) endToEnd(win *window, setups []float64) {
	r.Attempted, r.Failed, r.Errors = win.attempted, win.failed, win.errs
	r.Correct = win.failed == 0
	var samples, rounds, wire int64
	var wall, cpu float64
	var iv, civ, peaks []float64
	for _, f := range win.feds {
		if f.setup > 0 {
			setups = append(setups, f.setup.Seconds())
		}
		if f.end.IsZero() {
			continue
		}
		w := f.end.Sub(f.start).Seconds()
		samples += f.samples
		wall += w
		cpu += (f.cpuEnd - f.cpuStart).Seconds()
		for _, d := range f.cpuIntervals() {
			civ = append(civ, ms(d))
		}
		rounds += int64(f.rounds)
		wire += f.wireBytes
		peaks = append(peaks, f.peakHeap)
		var fiv []float64
		for _, d := range f.intervals() {
			fiv = append(fiv, ms(d))
		}
		iv = append(iv, fiv...)
		fs := fedSummary{
			Seed: f.seed, SetupS: f.setup.Seconds(), RunS: w, CPUS: (f.cpuEnd - f.cpuStart).Seconds(), Samples: f.samples, Jobs: f.jobs,
			Installed: len(f.marks), RoundMsP50: median(fiv), PeakHeapMB: f.peakHeap / 1e6, WireBytes: f.wireBytes,
		}
		if f.err != nil {
			fs.Error = f.err.Error()
		}
		r.Federations = append(r.Federations, fs)
	}
	e := r.EndToEnd
	e["setup_s"] = median(setups)
	e["samples_per_cpu_s"] = ratio(float64(samples), cpu)
	e["round_cpu_ms_p50"] = quantile(civ, 0.5)
	d := r.Detail
	// The wall-clock forms of the throughput and round figures are what a
	// user waits for, but on a shared host they swing with the neighbours'
	// load; the CPU round tail and the heap peak swing with the partitions
	// and the GC's timing. So they carry no bound.
	d["samples_per_s"] = ratio(float64(samples), wall)
	d["round_ms_p50"] = quantile(iv, 0.5)
	d["round_ms_p90"] = quantile(iv, 0.9)
	d["round_cpu_ms_p90"] = quantile(civ, 0.9)
	d["peak_heap_mb"] = median(peaks) / 1e6
	d["run_cpu_s"] = cpu
	d["federations"] = float64(len(win.feds))
	d["setup_samples"] = float64(len(setups))
	for _, q := range []int{10, 25, 40, 60, 75} {
		d[fmt.Sprintf("round_ms_p%02d", q)] = quantile(iv, float64(q)/100)
	}
	d["round_intervals"] = float64(len(iv))
	d["round_intervals_beyond_p90"] = math.Floor(0.1 * float64(len(iv)))
	d["samples"] = float64(samples)
	d["run_wall_s"] = wall
	d["failed_frac"] = ratio(float64(win.failed), float64(win.attempted))
	if wire > 0 {
		d["wire_bytes_per_round"] = ratio(float64(wire), float64(rounds))
	}
}

// write prints every metric by name with its unit, writes the report file
// and ends standard output with the JSON result line.
func (r *report) write(stdout io.Writer, path string) error {
	r.Files = append(r.Files, path)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}

	out := bufio.NewWriter(stdout)
	p := r.Provenance
	fmt.Fprintf(out, "perfbench %s seed %d trace %d: correct=%v attempted=%d failed=%d\n", p.Workload, p.Seed, p.Trace, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(out, "provenance: sha %s, %s, nproc %d, GOMAXPROCS %d, %s, %s\n", p.GitSHA, p.Date, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.CPUModel)
	fmt.Fprintf(out, "command: %s\n", p.Command)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "error: %s\n", e)
	}
	label := "end-to-end"
	if p.Trace == 1 {
		label = "end-to-end (traced window, not the figures to compare)"
	}
	fmt.Fprintf(out, "%s:\n", label)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, r.EndToEnd[m.name], m.unit)
	}
	if r.Layer != nil {
		fmt.Fprintln(out, "per-layer (replay: measured after the run on its captured inputs):")
		for _, m := range perLayer {
			note := ""
			if why, ok := r.NA[m.name]; ok {
				note = "  n/a: " + why
			} else if replayed[m.name] {
				note = "  replay"
			}
			fmt.Fprintf(out, "  %-36s %14.6g %s%s\n", m.name, r.Layer[m.name], m.unit, note)
		}
	}
	fmt.Fprintln(out, "detail:")
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-36s %14.6g\n", k, r.Detail[k])
	}
	fmt.Fprintf(out, "report: %s\n", path)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if p.Trace == 1 {
		defs, vals = perLayer, r.Layer
	}
	ms := make(map[string]value, len(defs))
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return out.Flush()
}
