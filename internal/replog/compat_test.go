package replog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The on-disk formats are pinned byte for byte: testdata/compat holds a
// member directory written by an earlier build — a 3-entry WAL segment
// (entries 11..13), the snapshot they follow (through 10) and a meta.bin
// (term 7, 3 boots). Every format change that breaks these files breaks
// recovery of existing data directories.

func compatGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCompatGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mkEntries(11, 13)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(11)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{
		{segName(11), seg},
		{snapName(10), EncodeSnapshot(mkSnap(10))},
		{metaFile, encodeMeta(Meta{Term: 7, Boots: 3})},
	} {
		if want := compatGolden(t, c.name); !bytes.Equal(c.got, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", c.name, c.got, want)
		}
	}
}

func TestCompatOpenExistingDataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{segName(11), snapName(10), metaFile} {
		if err := os.WriteFile(filepath.Join(dir, name), compatGolden(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	snapsEqual(t, rec.Snap, mkSnap(10))
	entriesEqual(t, rec.Entries, mkEntries(11, 13))
	if rec.Meta.Term != 7 || rec.Meta.Boots != 4 {
		t.Fatalf("meta = %+v, want term 7 and the 4th boot", rec.Meta)
	}
	if rec.TornRecords != 0 {
		t.Fatalf("an intact segment recovered %d torn records", rec.TornRecords)
	}
}
