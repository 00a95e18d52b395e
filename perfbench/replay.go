package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"dqm/internal/experiment"
)

// replayPermsPerSecond sizes paper-replay: the measured phase is
// measuredRounds replays of -r replayPermsPerSecond*seconds/measuredRounds
// each, which take about -seconds together on a 2-CPU box.
const replayPermsPerSecond = 100

// replayGroups groups the experiment drivers for the per-layer spans.
var replayGroups = []struct {
	Name string
	IDs  []string
}{
	{"experiment.real_data_s", []string{"2a", "2b", "3", "4", "5"}},
	{"experiment.simulation_s", []string{"6a", "6b", "7a", "7b", "7c", "8", "sec321"}},
	{"experiment.ablation_s", []string{"ablation-baselines", "ablation-switch", "ablation-vchao"}},
	{"experiment.extensions_s", []string{"ext-algorithmic", "ext-fatigue", "ext-quality", "ext-redundancy"}},
}

// replayRun is one finished dqm-experiments process.
type replayRun struct {
	wall   time.Duration
	out    []byte
	maxRSS float64
}

// runExperiments runs dqm-experiments -figure all with the given seed,
// permutation count and parallelism, capturing its output.
func runExperiments(cfg runCfg, perms, parallel int) (replayRun, error) {
	cmd := exec.Command(filepath.Join(cfg.Bin, "dqm-experiments"), "-figure", "all",
		"-seed", strconv.FormatUint(cfg.Seed, 10), "-r", strconv.Itoa(perms), "-parallel", strconv.Itoa(parallel))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.Nproc))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := startChild(cmd)
	if err == nil {
		err = waitChild(cmd)
	}
	wall := time.Since(start)
	if err != nil {
		return replayRun{}, fmt.Errorf("dqm-experiments -r %d -parallel %d: %v: %.500s", perms, parallel, err, errb.Bytes())
	}
	return replayRun{wall: wall, out: out.Bytes(), maxRSS: rusageMaxRSS(cmd.ProcessState)}, nil
}

func runReplay(cfg runCfg) (*report, error) {
	rep := &report{env: map[string]any{}}
	rep.env["host.calib_ms"] = calibrate()
	perms := max(replayPermsPerSecond*cfg.Seconds/measuredRounds, 1)

	// Set-up is a one-permutation warm-up replay, which loads the binary
	// and the datasets' code into the page cache.
	var setupS []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if _, err := runExperiments(cfg, 1, cfg.Nproc); err != nil {
			rep.tally.fail("%v", err)
		} else {
			rep.tally.ok()
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// The measured phase is measuredRounds identical replays; replay_s is
	// their median.
	var walls []float64
	var par replayRun
	for k := 0; k < measuredRounds; k++ {
		run, err := runExperiments(cfg, perms, cfg.Nproc)
		if err != nil {
			rep.tally.fail("%v", err)
			return nil, err
		}
		rep.tally.ok()
		walls = append(walls, run.wall.Seconds())
		rep.check(k == 0 || bytes.Equal(run.out, par.out), "replay %d output differs from replay 1", k+1)
		par.out, par.maxRSS = run.out, max(par.maxRSS, run.maxRSS)
	}
	// Output check: the parallel replay is byte-identical to a serial one.
	serial, err := runExperiments(cfg, perms, 1)
	if err != nil {
		rep.tally.fail("%v", err)
		return nil, err
	}
	rep.tally.ok()
	rep.check(len(par.out) > 0 && bytes.Equal(par.out, serial.out),
		"-parallel %d output (%d bytes) differs from -parallel 1 output (%d bytes)", cfg.Nproc, len(par.out), len(serial.out))
	rep.check(bytes.Count(par.out, []byte("\n\n")) >= len(experiment.IDs()),
		"replay printed %d figures, want at least %d", bytes.Count(par.out, []byte("\n\n")), len(experiment.IDs()))

	rep.env["ops.permutations"] = perms
	rep.env["ops.replays"] = measuredRounds
	rep.env["replay_s.all"] = walls
	rep.env["ops.figures"] = "all"
	rep.env["replay.parallel"] = cfg.Nproc
	rep.env["replay_gomaxprocs"] = cfg.Nproc
	rep.env["client_gomaxprocs"] = cfg.Nproc
	rep.env["replay.serial_s"] = serial.wall.Seconds()
	rep.env["setup_s.all"] = setupS
	rep.env["fsync.paper-replay"] = "none (no data dir)"

	if !cfg.Trace {
		rep.add("setup_s", median(setupS), "s")
		rep.add("peak_rss_mib", par.maxRSS, "MiB")
		return rep, nil
	}

	// Demoted from end to end; see README.md.
	rep.add("paper-replay.replay_s", median(walls), "s")
	rep.add("experiment.parallel_speedup", serial.wall.Seconds()/median(walls), "x")
	opts := experiment.Options{Seed: cfg.Seed, Permutations: perms, Parallelism: cfg.Nproc}
	spans, err := runTraced(func(on bool, _ string) ([]span, error) {
		rec := newRecorder(on, time.Now(), 0)
		for gi, g := range replayGroups {
			gs := rec.begin(gi+1, 0, g.Name)
			for _, id := range g.IDs {
				driver, err := experiment.ByID(id)
				if err != nil {
					return nil, err
				}
				ds := rec.begin(gi+1, gs, "experiment.driver."+id)
				driver(opts)
				rec.end(ds)
			}
			rec.end(gs)
		}
		return rec.spans, nil
	}, cfg.Work)
	if err != nil {
		return nil, err
	}
	st := aggregate(spans)
	for _, g := range replayGroups {
		rep.add(g.Name, float64(st[g.Name].Total)/1e9, "s")
	}
	return rep, nil
}
