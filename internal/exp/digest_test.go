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
		lineOf, err := lineIDsConsistent(res.Schedule, true)
		if err != nil {
			return nil, fmt.Errorf("%s/%s partition: %w", name, nest.Name, err)
		}

		def, err := baseline.Place(app.Prog, nest, app.Store, opts, baseline.ProfiledLocality)
		if err != nil {
			return nil, fmt.Errorf("%s/%s baseline: %w", name, nest.Name, err)
		}
		place.int(def.TotalMovement)
		place.float(def.L1HitRate)
		place.schedule(def.Schedule)
		if _, err := lineIDsConsistent(def.Schedule, true); err != nil {
			return nil, fmt.Errorf("%s/%s baseline: %w", name, nest.Name, err)
		}

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
		if err := checkpointFormat(ck, res.Schedule, m); err != nil {
			return nil, fmt.Errorf("%s/%s checkpoint: %w", name, nest.Name, err)
		}
		ckpt.checkpoint(lineKeyed(ck, lineOf), m.Nodes())

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
		if err := derivedLineIDs(res.Schedule, rs, m, f, ro); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, nest.Name, err)
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

// checkpoint encodes a checkpoint's residency by line, as lineKeyed maps it
// back on the mesh of nodes nodes: which nodes hold copies and their lines,
// then the homes in line order.
func (d *digest) checkpoint(r lineResidency, nodes int) {
	d.int(int64(len(r.resident)))
	for n := mesh.NodeID(0); int(n) < nodes; n++ {
		lines, ok := r.resident[n]
		d.bool(ok)
		d.int(int64(len(lines)))
		for _, l := range lines {
			d.int(int64(l))
		}
	}
	homes := make([]uint64, 0, len(r.home))
	for l := range r.home {
		homes = append(homes, l)
	}
	slices.Sort(homes)
	d.int(int64(len(homes)))
	for _, l := range homes {
		d.int(int64(l))
		d.int(int64(r.home[l]))
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

// derivedLineIDs checks the line IDs of the schedules derived from the
// partitioner's s on mesh m under faults f: its offline repair and the
// online residual rs (nil when the online repair failed). Neither is
// digested; each must keep s's numbering and its bound.
func derivedLineIDs(s, rs *core.Schedule, m *mesh.Mesh, f *mesh.FaultSet, ro core.RepairOptions) error {
	parent, err := lineIDsConsistent(s, true)
	if err != nil {
		return err
	}
	derived := map[string]*core.Schedule{"online": rs}
	if rep, _, err := core.RepairVerified(s, m, f, ro, nil); err == nil {
		derived["repair"] = rep
	}
	for _, path := range []string{"repair", "online"} {
		d := derived[path]
		if d == nil {
			continue
		}
		if d.Lines != s.Lines {
			return fmt.Errorf("%s: %d line IDs, the partitioned schedule has %d", path, d.Lines, s.Lines)
		}
		lineOf, err := lineIDsConsistent(d, path == "repair")
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for id := int32(0); int(id) < s.Lines; id++ {
			if line, ok := lineOf[id]; ok && parent[id] != line {
				return fmt.Errorf("%s: ID %d names line %#x, the partitioned schedule's names %#x", path, id, line, parent[id])
			}
		}
	}
	return nil
}

// lineIDsConsistent checks a schedule's line numbering and returns it, ID
// to line: every fetch's LineID and root's ResultID lies in [0, s.Lines),
// and equal lines carry equal IDs while different lines carry different
// ones. With dense set, every ID in [0, s.Lines) must be in use, as it is
// in an emitted schedule; a residual keeps its parent's bound and may leave
// IDs unused.
func lineIDsConsistent(s *core.Schedule, dense bool) (map[int32]uint64, error) {
	idOf := make(map[uint64]int32)
	lineOf := make(map[int32]uint64)
	see := func(task int, line uint64, id int32) error {
		if id < 0 || int(id) >= s.Lines {
			return fmt.Errorf("task %d: line %#x has ID %d outside [0, %d)", task, line, id, s.Lines)
		}
		if prev, ok := idOf[line]; ok && prev != id {
			return fmt.Errorf("task %d: line %#x has IDs %d and %d", task, line, prev, id)
		}
		if prev, ok := lineOf[id]; ok && prev != line {
			return fmt.Errorf("task %d: ID %d names lines %#x and %#x", task, id, prev, line)
		}
		idOf[line], lineOf[id] = id, line
		return nil
	}
	for _, t := range s.Tasks {
		for _, fe := range t.Fetches {
			if err := see(t.ID, fe.Line, fe.LineID); err != nil {
				return nil, err
			}
		}
		if t.IsRoot {
			if err := see(t.ID, t.ResultLine, t.ResultID); err != nil {
				return nil, err
			}
		}
	}
	if dense && len(lineOf) != s.Lines {
		return nil, fmt.Errorf("%d line IDs in use, want all of [0, %d)", len(lineOf), s.Lines)
	}
	return lineOf, nil
}
