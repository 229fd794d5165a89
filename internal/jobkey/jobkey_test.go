package jobkey

import (
	"testing"

	"github.com/impsim/imp"
	"github.com/impsim/imp/api"
	"github.com/impsim/imp/internal/blobstore"
)

// TestRouterBackendKeyIdentity is the property the router's cache locality
// rests on: the key computed from a raw submitted spec equals the key of
// the same spec after the backend has normalized it. If these ever diverge,
// the router would hash jobs onto one backend while another owns the
// cached result.
func TestRouterBackendKeyIdentity(t *testing.T) {
	raw := api.JobSpec{Sweep: []imp.Config{
		{Workload: "spmv", System: imp.SystemIMP}, // Cores/Scale defaulted
		{Workload: "pagerank", Cores: 8, Scale: 0.5, System: imp.SystemBaseline},
	}}
	routed, err := ResultKey(raw)
	if err != nil {
		t.Fatal(err)
	}

	normalized := api.JobSpec{Sweep: []imp.Config{
		{Workload: "spmv", Cores: 64, Scale: 1.0, System: imp.SystemIMP},
		{Workload: "pagerank", Cores: 8, Scale: 0.5, System: imp.SystemBaseline},
	}}
	normalized.Normalize()
	backend, err := ResultKey(normalized)
	if err != nil {
		t.Fatal(err)
	}
	if routed != backend {
		t.Fatalf("router key %s != backend key %s for the same work", routed, backend)
	}

	hinted := raw
	hinted.Parallelism = 7
	hinted.TimeoutSec = 30
	if k, _ := ResultKey(hinted); k != routed {
		t.Errorf("execution hints changed the key: %s != %s", k, routed)
	}

	exp := api.JobSpec{Experiment: "fig2", Workloads: []string{"spmv"}}
	ek, err := ResultKey(exp)
	if err != nil {
		t.Fatal(err)
	}
	if ek == routed {
		t.Error("experiment and sweep specs share a key")
	}
}

// TestValidKey: every ResultKey output validates; nothing that could
// misbehave as a file name or URL segment does.
func TestValidKey(t *testing.T) {
	k, err := ResultKey(api.JobSpec{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if !blobstore.ValidKey(k) {
		t.Fatalf("ResultKey output %q does not validate", k)
	}
	if len(k) != blobstore.KeyLen {
		t.Fatalf("key length %d, want %d", len(k), blobstore.KeyLen)
	}
	for _, bad := range []string{
		"",
		"abc",
		k + "0",                      // too long
		k[:blobstore.KeyLen-1] + "G", // uppercase hex
		k[:blobstore.KeyLen-1] + "/", // path separator
		"../../../etc/passwd00000000"[:blobstore.KeyLen], // traversal shape
	} {
		if blobstore.ValidKey(bad) {
			t.Errorf("ValidKey accepted %q", bad)
		}
	}
}

// TestResultKeyPinned pins ResultKey's exact output: the router places
// results on its ring by these bytes and backends name result files after
// them, so a change here would strand every cached and persisted result.
// A trace format or generator version bump changes them on purpose; update
// the pins with it.
func TestResultKeyPinned(t *testing.T) {
	sweep := []imp.Config{
		{Workload: "spmv", System: imp.SystemIMP},
		{Workload: "pagerank", Cores: 8, Scale: 0.5, System: imp.SystemBaseline},
	}
	for _, tc := range []struct {
		spec api.JobSpec
		want string
	}{
		{api.JobSpec{Sweep: sweep}, "191a3534ae2efdc99d474015"},
		{api.JobSpec{Sweep: sweep, Parallelism: 7, TimeoutSec: 30}, "191a3534ae2efdc99d474015"},
		{api.JobSpec{Experiment: "fig2", Workloads: []string{"spmv"}}, "bdbfa8274d795d5de1376277"},
		{api.JobSpec{Experiment: "fig2"}, "ddc7bb4dd3351f0c53147f0f"},
	} {
		if got, err := ResultKey(tc.spec); err != nil || got != tc.want {
			t.Errorf("ResultKey(%+v) = %q, %v; want %q", tc.spec, got, err, tc.want)
		}
	}
}
