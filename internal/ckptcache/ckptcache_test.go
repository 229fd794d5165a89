package ckptcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestMemAndDiskRoundTrip(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()

	if _, ok := Get("k1", dir); ok {
		t.Fatal("hit on empty cache")
	}
	blob := []byte("checkpoint-bytes")
	Put("k1", dir, blob)

	got, ok := Get("k1", dir)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("mem get = (%q, %v)", got, ok)
	}
	// A fresh process (simulated by flushing memory) must hit via disk.
	Flush()
	got, ok = Get("k1", dir)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("disk get = (%q, %v)", got, ok)
	}
	s := GetStats()
	if s.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", s.DiskHits)
	}
	// The disk hit was promoted: the next read is a memory hit.
	if _, ok := Get("k1", dir); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := GetStats(); s.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", s.MemHits)
	}
}

func TestDiskDisabled(t *testing.T) {
	Flush()
	defer Flush()
	Put("k", "off", []byte("x"))
	Flush()
	if _, ok := Get("k", "off"); ok {
		t.Fatal("entry survived a flush with the disk layer off")
	}
	if s := GetStats(); s.DiskSkips == 0 {
		t.Error("disk-off operations not counted in DiskSkips")
	}
}

func TestEnvOverride(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()
	t.Setenv(EnvDir, dir)
	Put("k", "", []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "k"+Ext)); err != nil {
		t.Fatalf("checkpoint not under IMP_CKPT_CACHE dir: %v", err)
	}
	t.Setenv(EnvDir, "off")
	Put("k2", "", []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "k2"+Ext)); !os.IsNotExist(err) {
		t.Errorf("checkpoint written under IMP_CKPT_CACHE=off: %v", err)
	}
	if s := GetStats(); s.DiskPuts != 1 || s.DiskSkips != 1 {
		t.Errorf("IMP_CKPT_CACHE=off put not skipped: %+v", s)
	}
	// An explicit dir argument overrides the environment.
	Put("k3", dir, []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, "k3"+Ext)); err != nil {
		t.Errorf("explicit override lost: %v", err)
	}
}

func TestEvictDropsBothLayers(t *testing.T) {
	Flush()
	defer Flush()
	dir := t.TempDir()
	Put("bad", dir, []byte("poisoned"))
	Evict("bad", dir)
	if _, ok := Get("bad", dir); ok {
		t.Fatal("evicted entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad"+Ext)); !os.IsNotExist(err) {
		t.Errorf("evicted file still on disk: %v", err)
	}
	if s := GetStats(); s.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", s.Corrupt)
	}
}

func TestMemLRUEviction(t *testing.T) {
	Flush()
	defer Flush()
	// Disk off: eviction must actually lose the oldest entries.
	for i := 0; i < maxMemEntries+8; i++ {
		Put(fmt.Sprintf("k%03d", i), "off", []byte{byte(i)})
	}
	if _, ok := Get("k000", "off"); ok {
		t.Error("oldest entry survived past the entry cap")
	}
	if _, ok := Get(fmt.Sprintf("k%03d", maxMemEntries+7), "off"); !ok {
		t.Error("newest entry was evicted")
	}
}
