package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rexptree"
)

// The live-reshard mode measures what an online reshard costs the
// serving path: the same mixed query/update load is driven twice over
// one sharded index — once in steady state, once while the engine
// snapshots, backfills and cuts over to a speed-partitioned generation
// — and the two phases' throughput and latency quantiles are compared.
// The cutover's exclusive mutation stall (the only writer-visible
// pause of the whole operation) is read back off the index metrics.

// liveReshardConfig echoes the benchmark parameters into the JSON.
type liveReshardConfig struct {
	Objects      int     `json:"objects"`
	Shards       int     `json:"shards"`
	QueryWorkers int     `json:"query_workers"`
	DurationSec  float64 `json:"steady_duration_sec"`
	IOLatencyStr string  `json:"io_latency"`
	Seed         int64   `json:"seed"`
}

// liveReshardPhase is one measured load window.
type liveReshardPhase struct {
	DurationSec     float64 `json:"duration_sec"`
	QueryOpsPerSec  float64 `json:"query_ops_per_sec"`
	QueryP50Ms      float64 `json:"query_p50_ms"`
	QueryP99Ms      float64 `json:"query_p99_ms"`
	UpdateOpsPerSec float64 `json:"update_ops_per_sec"`
	UpdateP50Ms     float64 `json:"update_p50_ms"`
	UpdateP99Ms     float64 `json:"update_p99_ms"`
}

// runMixedLoad drives `workers` query goroutines and one updater
// against s until stop closes, then reports throughput and latency
// quantiles over the actual window.
func runMixedLoad(s *rexptree.ShardedTree, workers, objects int, seed int64, stop <-chan struct{}) (liveReshardPhase, error) {
	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
		qlats    = make([][]time.Duration, workers)
		ulats    []time.Duration
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := randQuery(s, rng, 60); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				qlats[w] = append(qlats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 7919))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := uint32(rng.Intn(objects) + 1)
			p := rexptree.Point{
				Pos:     rexptree.Vec{rng.Float64() * 1000, rng.Float64() * 1000},
				Vel:     rexptree.Vec{rng.Float64()*2 - 1, rng.Float64()*2 - 1},
				Expires: rexptree.NoExpiry(),
			}
			t0 := time.Now()
			if err := s.Update(id, p, 0); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			ulats = append(ulats, time.Since(t0))
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)

	var ph liveReshardPhase
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return ph, err
	}
	var qall []time.Duration
	for _, l := range qlats {
		qall = append(qall, l...)
	}
	ph.DurationSec = elapsed.Seconds()
	ph.QueryOpsPerSec = float64(len(qall)) / elapsed.Seconds()
	ph.UpdateOpsPerSec = float64(len(ulats)) / elapsed.Seconds()
	ph.QueryP50Ms = quantileMs(qall, 0.50)
	ph.QueryP99Ms = quantileMs(qall, 0.99)
	ph.UpdateP50Ms = quantileMs(ulats, 0.50)
	ph.UpdateP99Ms = quantileMs(ulats, 0.99)
	return ph, nil
}

// quantileMs returns the q-quantile of the sampled durations in
// milliseconds (0 when nothing was sampled).
func quantileMs(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q * float64(len(samples)-1))
	return float64(samples[i]) / float64(time.Millisecond)
}

// closeAfter closes a stop channel after d.
func closeAfter(d time.Duration) <-chan struct{} {
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	return stop
}

// runLiveReshardBench executes the live-reshard comparison and writes
// the JSON report.
func runLiveReshardBench(objects, shards, workers int, durationSec float64, ioLat time.Duration, seed int64, out string, progress func(string)) error {
	opts := rexptree.DefaultOptions()
	opts.IOLatency = ioLat
	s, err := rexptree.OpenSharded(rexptree.ShardedOptions{Options: opts, Shards: shards})
	if err != nil {
		return err
	}
	defer s.Close()

	load := throughputWorkload(objects, seed)
	for i := 0; i < len(load); i += 1000 {
		end := min(i+1000, len(load))
		if err := s.UpdateBatch(load[i:end], 0); err != nil {
			return err
		}
	}

	cfg := liveReshardConfig{
		Objects:      objects,
		Shards:       shards,
		QueryWorkers: workers,
		DurationSec:  durationSec,
		IOLatencyStr: ioLat.String(),
		Seed:         seed,
	}
	report := struct {
		Config        liveReshardConfig `json:"config"`
		Steady        liveReshardPhase  `json:"steady"`
		DuringReshard liveReshardPhase  `json:"during_reshard"`
		// The reshard's wall clock, and the slice of it writers could
		// actually observe: the cutover's exclusive stall.
		ReshardWallMs  float64 `json:"reshard_wall_ms"`
		CutoverStallMs float64 `json:"cutover_stall_ms"`
		Backfilled     uint64  `json:"backfilled"`
		DualApplied    uint64  `json:"dual_applied"`
		Generation     int     `json:"generation"`
		// during_reshard p99 over steady p99 (queries); the headline
		// "what does an online reshard cost the read path" ratio.
		QueryP99Ratio float64 `json:"query_p99_ratio"`
	}{Config: cfg}

	d := time.Duration(durationSec * float64(time.Second))
	progress(fmt.Sprintf("steady state (%d objects, %d shards, %d query workers)", objects, shards, workers))
	report.Steady, err = runMixedLoad(s, workers, objects, seed, closeAfter(d))
	if err != nil {
		return err
	}

	// The target layout: same shard count, speed-banded.  The workload's
	// velocity components are uniform in [-1,1], so spread the bands
	// across the resulting |v| range.
	spec := rexptree.ReshardSpec{Shards: shards, Policy: rexptree.PartitionSpeed}
	for i := 1; i < shards; i++ {
		spec.SpeedBands = append(spec.SpeedBands, 1.4*float64(i)/float64(shards))
	}
	progress(fmt.Sprintf("live reshard to %d speed-banded shards under load", shards))
	before := s.Metrics()
	stop := make(chan struct{})
	var reshardErr error
	wallStart := time.Now()
	go func() {
		reshardErr = s.Reshard(spec)
		close(stop)
	}()
	report.DuringReshard, err = runMixedLoad(s, workers, objects, seed+1, stop)
	report.ReshardWallMs = float64(time.Since(wallStart)) / float64(time.Millisecond)
	if err != nil {
		return err
	}
	if reshardErr != nil {
		return fmt.Errorf("live reshard: %w", reshardErr)
	}

	diff := s.Metrics().Sub(before)
	if diff.ReshardCutoverStall.Count > 0 {
		report.CutoverStallMs = diff.ReshardCutoverStall.Mean() * 1000
	}
	report.Backfilled = diff.ReshardBackfilled
	report.DualApplied = diff.ReshardDualApplied
	report.Generation = s.Generation()
	if report.Steady.QueryP99Ms > 0 {
		report.QueryP99Ratio = report.DuringReshard.QueryP99Ms / report.Steady.QueryP99Ms
	}
	if got := s.Len(); got != objects {
		return fmt.Errorf("object count changed across the reshard: %d, want %d", got, objects)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("post-reshard validate: %w", err)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("live reshard: %.0f ms wall, %.2f ms cutover stall; query p99 %.2f ms steady vs %.2f ms during (%.2fx) -> %s\n",
		report.ReshardWallMs, report.CutoverStallMs,
		report.Steady.QueryP99Ms, report.DuringReshard.QueryP99Ms, report.QueryP99Ratio, out)
	return nil
}
