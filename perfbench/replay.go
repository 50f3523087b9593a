package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
	"github.com/dcslib/dcs/serve"
)

// encodeIndented encodes v the way the server's writeJSON does.
func encodeIndented(v any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // io.Discard cannot fail
}

// ---- ingest-churn ----------------------------------------------------------

// ingestReplayer mirrors the durable server: every upload is written as a v2
// file (temp file, fsync, rename, directory fsync, then the manifest the same
// way), the first mine after it cold-maps the file, and every mine rebuilds
// the difference graph, as the server does after a replacement purged its
// cache. Unlike the server's memory budget it never evicts a mapping.
type ingestReplayer struct {
	dir      string
	files    map[string]string
	mapped   map[string]*dcs.MappedGraph
	versions map[string]int
}

func newIngestReplayer(dir string, preload []op) (*ingestReplayer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &ingestReplayer{dir: dir, files: map[string]string{}, mapped: map[string]*dcs.MappedGraph{}, versions: map[string]int{}}
	for _, o := range preload {
		if _, err := r.do(nil, -1, o); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *ingestReplayer) do(tr *tracer, id int, o op) (string, error) {
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	if o.class == "put" {
		return r.put(tr, root, o)
	}
	var req serve.DCSRequest
	var err error
	tr.timed("serve.decode", root, func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return "", err
	}
	g1, err := r.graph(tr, root, req.G1)
	if err != nil {
		return "", err
	}
	g2, err := r.graph(tr, root, req.G2)
	if err != nil {
		return "", err
	}
	var gd *dcs.Graph
	tr.timed("graph.diff_build", root, func() { gd = dcs.DifferenceAlpha(g1, g2, 1) })
	return mineOn(tr, root, &req, g1, g2, gd)
}

// graph returns the named snapshot, mapping its file on first use.
func (r *ingestReplayer) graph(tr *tracer, root int, name string) (*dcs.Graph, error) {
	if m := r.mapped[name]; m != nil {
		return m.Graph(), nil
	}
	var m *dcs.MappedGraph
	var err error
	tr.timed("dataio.map_open", root, func() { m, err = dcs.OpenGraphMapped(r.files[name]) })
	if err != nil {
		return nil, err
	}
	r.mapped[name] = m
	return m.Graph(), nil
}

func (r *ingestReplayer) put(tr *tracer, root int, o op) (string, error) {
	var req serve.SnapshotRequest
	var err error
	tr.timed("serve.decode", root, func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return "", err
	}
	var g *dcs.Graph
	tr.timed("serve.build", root, func() { g, err = req.GraphJSON.Build() })
	if err != nil {
		return "", err
	}
	r.versions[req.Name]++
	v := r.versions[req.Name]
	file := filepath.Join(r.dir, fmt.Sprintf("%s.v%d.dcsg", req.Name, v))
	var n int64
	tr.timed("persist.write", root, func() {
		n, err = writeAtomic(file, func(w io.Writer) error { return dcs.WriteGraphBinaryV2(w, g, false) })
		if err != nil {
			return
		}
		var mn int64
		mn, err = writeAtomic(filepath.Join(r.dir, req.Name+".json"), func(w io.Writer) error {
			return json.NewEncoder(w).Encode(map[string]any{"name": req.Name, "version": v,
				"updated_at": time.Now(), "file": filepath.Base(file),
				"meta": map[string]any{"n": g.N(), "m": g.M(), "total_weight": g.TotalWeight()}})
		})
		n += mn
	})
	if err != nil {
		return "", err
	}
	if m := r.mapped[req.Name]; m != nil {
		m.Close()
		delete(r.mapped, req.Name)
	}
	if old := r.files[req.Name]; old != "" {
		os.Remove(old)
	}
	r.files[req.Name] = file
	tr.count("persist.puts", 1)
	tr.count("persist.bytes", float64(n))
	info := serve.SnapshotInfo{Name: req.Name, Version: v, N: g.N(), M: g.M(), TotalWeight: g.TotalWeight(), UpdatedAt: time.Now()}
	tr.timed("serve.encode", root, func() { encodeIndented(info) })
	return putDigest(info.Name, info.N, info.M, info.TotalWeight), nil
}

func (r *ingestReplayer) close() {
	for _, m := range r.mapped {
		m.Close()
	}
	os.RemoveAll(r.dir)
}

// writeAtomic writes path through a synced temp file and a synced rename,
// returning the bytes written.
func writeAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := write(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	n, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return 0, err
	}
	defer d.Close()
	return n, d.Sync()
}

// ---- watch-delta -----------------------------------------------------------

// watchReplayer feeds the same ticks to library trackers seeded like the
// server's watches.
type watchReplayer struct {
	n        int
	trackers map[string]*evolve.Tracker
}

func newWatchReplayer(n int, seeds []*dcs.Graph) (*watchReplayer, error) {
	r := &watchReplayer{n: n, trackers: map[string]*evolve.Tracker{}}
	for w, g := range seeds {
		t, err := evolve.New(n, evolve.Config{Opt: dcs.Options{Parallelism: 1}})
		if err != nil {
			return nil, err
		}
		if _, err := t.ObserveCtx(context.Background(), g); err != nil {
			return nil, err
		}
		r.trackers[fmt.Sprintf("w%d", w)] = t
	}
	return r, nil
}

func (r *watchReplayer) do(tr *tracer, id int, o op) (string, error) {
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	var req serve.WatchObserveRequest
	var err error
	tr.timed("serve.decode", root, func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return "", err
	}
	var delta []dcs.Edge
	tr.timed("serve.build", root, func() {
		delta = make([]dcs.Edge, 0, len(req.Delta))
		for i, e := range req.Delta {
			if e.U < 0 || e.U >= r.n || e.V < 0 || e.V >= r.n || e.U == e.V || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				err = fmt.Errorf("delta %d: bad edge %+v", i, e)
				return
			}
			delta = append(delta, dcs.Edge{U: e.U, V: e.V, W: e.W})
		}
	})
	if err != nil {
		return "", err
	}
	t := r.trackers[o.key]
	var rep evolve.Report
	sp := tr.begin("evolve.tick", root, id)
	rep, err = t.ObserveDeltaCtx(context.Background(), delta)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	tr.rename(sp, "evolve."+rep.Mode+"_tick")
	tr.count("evolve.ticks", 1)
	if rep.Mode == evolve.ModeScratch {
		tr.count("evolve.scratch_ticks", 1)
	} else {
		tr.count("evolve.incremental_ticks", 1)
		if rep.WarmHit {
			tr.count("evolve.warm_hits", 1)
		}
	}
	wr := serve.WatchReport{Step: rep.Step, Anomalous: rep.Anomalous(), S: rep.S, Contrast: rep.Contrast,
		Affinity: rep.Affinity, Mode: rep.Mode, WarmHit: rep.WarmHit, ObservedAt: time.Now()}
	tr.timed("serve.encode", root, func() { encodeIndented(wr) })
	return watchDigest(o.key, rep.Step, wr.Anomalous, rep.Mode, rep.S, rep.Contrast), nil
}

func (r *watchReplayer) close() {}
