package main

import (
	"context"

	"codeletfft"
	"codeletfft/cluster"
)

const clusterWorkers = 4

// clusterLoop runs a 2^20-point transform through a loopback cluster:
// coordinator, session codec, peer exchange and the shard engines of
// nWorkers in-process workers.
type clusterLoop struct {
	nWorkers int
	cl       *cluster.Cluster
	orig     []complex128
	data     []complex128
	want     []complex128 // the single-node HostPlan spectrum
}

func newClusterW4(string) workload { return &clusterLoop{nWorkers: clusterWorkers} }

func (w *clusterLoop) setup(seed uint64) error {
	cl, err := cluster.NewLoopback(w.nWorkers, cluster.Config{})
	if err != nil {
		return err
	}
	w.cl = cl
	w.orig = randomComplex(newRNG(seed, 4), largeN)
	w.data = append(w.data[:0], w.orig...)
	return nil
}

func (w *clusterLoop) prepare() error {
	if w.want != nil {
		return nil
	}
	p, err := codeletfft.NewHostPlan(largeN, codeletfft.WithWorkers(1))
	if err != nil {
		return err
	}
	w.want = append([]complex128(nil), w.orig...)
	return p.Transform(w.want)
}

func (w *clusterLoop) op(x *opCtx) {
	ctx := context.Background()
	x.timed("transform_ctx", catCluster, func() error { return w.cl.TransformCtx(ctx, w.data) })
	if x.check {
		x.verified(func() error { return closeTo("cluster spectrum", w.data, w.want) })
	}
	x.timed("inverse_ctx", catCluster, func() error { return w.cl.InverseCtx(ctx, w.data) })
	x.verified(func() error { return closeTo("cluster round trip", w.data, w.orig) })
}

func (w *clusterLoop) close() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
}
