package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite "+digestFile+" from the current code")

// digestFile holds one "<app> <path> <sha256>" line per workload and
// schedule-producing path.
const digestFile = "testdata/schedule_digests.txt"

// TestScheduleDigests pins every schedule-producing path bit for bit. For
// each workload at TestScale it hashes a canonical encoding of the
// partitioner's schedule under the default options (adaptive window sweep,
// fusion on), the ProfiledLocality baseline schedule, one seeded mid-run
// fault checkpoint (Home and L1Resident), and the RepairOnline result for
// that checkpoint, and compares the hashes with the committed file. A change
// meant to leave schedules alone must pass unchanged; one that moves them on
// purpose regenerates the file with -update-digests and says why.
func TestScheduleDigests(t *testing.T) {
	apps := workloads.Names()
	lines := make([][]string, len(apps))
	errs := make([]error, len(apps))
	if err := par.ForEach(2, len(apps), func(i int) {
		lines[i], errs[i] = appDigests(apps[i], int64(1+i*1000003))
	}); err != nil {
		t.Fatal(err)
	}
	if err := par.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(slices.Concat(lines...), "\n") + "\n"
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-digests)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d digests, %s holds %d", len(have), digestFile, len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("digest changed:\n  got  %s\n  want %s", have[i], want[i])
		}
	}
}

// appDigests returns the four digest lines of one workload, each folding in
// every nest of the app in order. seed drives the checkpoint's fault set.
func appDigests(name string, seed int64) ([]string, error) {
	app, err := workloads.Build(name, workloads.TestScale())
	if err != nil {
		return nil, err
	}
	part, place, ckpt, online := newDigest(), newDigest(), newDigest(), newDigest()
	for _, nest := range app.Nests {
		opts := core.DefaultOptions()
		m := opts.Mesh
		res, err := core.Partition(app.Prog, nest, app.Store, opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%s partition: %w", name, nest.Name, err)
		}
		part.int(int64(res.WindowSize))
		part.int(res.Stats.TotalMovement)
		part.schedule(res.Schedule)

		def, err := baseline.Place(app.Prog, nest, app.Store, opts, baseline.ProfiledLocality)
		if err != nil {
			return nil, fmt.Errorf("%s/%s baseline: %w", name, nest.Name, err)
		}
		place.int(def.TotalMovement)
		place.float(def.L1HitRate)
		place.schedule(def.Schedule)

		cfg := sim.DefaultConfig(m)
		run, err := sim.Run(res.Schedule, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s sim: %w", name, nest.Name, err)
		}
		// Three dead links and two dead tiles at half the makespan: most
		// nests have completed instances by then, so the checkpoint holds
		// homes and L1 copies, and the repair still migrates tasks.
		f := mesh.Inject(m, seed, 3, 0, 2, true)
		cfg.FaultEvents = []sim.FaultEvent{{Cycle: 0.5 * run.Cycles, Faults: f}}
		if run, err = sim.Run(res.Schedule, cfg); err != nil {
			return nil, fmt.Errorf("%s/%s fault-event sim: %w", name, nest.Name, err)
		}
		ck := run.Checkpoints[0]
		ckpt.checkpoint(ck, m.Nodes())

		in := verify.PartitionInput(app.Prog, app.Store, res, opts)
		in.Faults, in.Completed = f, ck.CompletedInstances(res.Schedule)
		ro := core.RepairOptions{LoadThreshold: opts.LoadThreshold}
		rs, rep, err := core.RepairOnline(res.Schedule, ck, m, f, ro, verify.Checker(in))
		online.onlineReport(rep)
		if err != nil {
			online.str(err.Error())
		} else {
			online.schedule(rs)
		}
	}
	out := make([]string, 0, 4)
	for _, d := range []struct {
		path string
		d    *digest
	}{{"partition", part}, {"baseline", place}, {"checkpoint", ckpt}, {"online", online}} {
		out = append(out, fmt.Sprintf("%s %s %x", name, d.path, d.d.h.Sum(nil)))
	}
	return out, nil
}

// digest is a canonical little-endian encoding fed to SHA-256.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) ints(vs []int) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

// schedule encodes every field of the schedule and of each of its tasks.
func (d *digest) schedule(s *core.Schedule) {
	d.int(int64(s.SyncsBefore))
	d.int(int64(s.SyncsAfter))
	d.int(int64(s.Instances))
	d.int(int64(len(s.Tasks)))
	for _, t := range s.Tasks {
		d.int(int64(t.ID))
		d.int(int64(t.Node))
		d.float(t.Ops)
		d.int(int64(len(t.Fetches)))
		for _, fe := range t.Fetches {
			d.int(int64(fe.From))
			d.int(int64(fe.Line))
			d.bool(fe.L2Miss)
			d.bool(fe.L1Hit)
		}
		d.ints(t.WaitFor)
		d.ints(t.WaitHops)
		d.bool(t.IsRoot)
		d.int(int64(t.ResultLine))
		d.int(int64(t.Stmt))
		d.int(int64(t.Iter))
		d.int(int64(t.Window))
	}
}

// checkpoint encodes the checkpoint's residency: which nodes have an
// L1Resident entry and their lines, then Home in line order.
func (d *digest) checkpoint(ck *core.Checkpoint, nodes int) {
	d.int(int64(len(ck.L1Resident)))
	for n := mesh.NodeID(0); int(n) < nodes; n++ {
		lines, ok := ck.L1Resident[n]
		d.bool(ok)
		d.int(int64(len(lines)))
		for _, l := range lines {
			d.int(int64(l))
		}
	}
	homes := make([]uint64, 0, len(ck.Home))
	for l := range ck.Home {
		homes = append(homes, l)
	}
	slices.Sort(homes)
	d.int(int64(len(homes)))
	for _, l := range homes {
		d.int(int64(l))
		d.int(int64(ck.Home[l]))
	}
}

// onlineReport encodes every counter of an online repair report, nil
// included.
func (d *digest) onlineReport(r *core.OnlineReport) {
	d.bool(r != nil)
	if r == nil {
		return
	}
	for _, v := range []int{r.CompletedTasks, r.ResidualTasks, r.InFlightTasks,
		r.SpilledL1Lines, r.RehomedPages, r.DroppedArcs, r.ConvertedFetches} {
		d.int(int64(v))
	}
	d.int(r.MigrationTraffic)
	rr := r.Repair
	d.bool(rr != nil)
	if rr == nil {
		return
	}
	d.int(int64(len(rr.DeadNodes)))
	for _, n := range rr.DeadNodes {
		d.int(int64(n))
	}
	for _, v := range []int{rr.Migrated, rr.RehomedFetches, rr.AddedArcs, rr.RemovedArcs} {
		d.int(int64(v))
	}
	d.bool(rr.Full)
	d.str(rr.Strategy)
	d.int(rr.MovementBefore)
	d.int(rr.MovementAfter)
}
