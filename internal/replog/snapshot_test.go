package replog

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ffwd/internal/replica"
)

func mkSnap(last uint64) *replica.Snapshot {
	return &replica.Snapshot{
		LastIndex: last,
		LastTerm:  3,
		State:     []byte{0xde, 0xad, 0xbe, 0xef, byte(last)},
		Ledger: map[uint64]replica.Applied{
			7:  {Seq: 11, Ret: 13},
			3:  {Seq: 5, Ret: 0},
			99: {Seq: 1, Ret: last},
		},
	}
}

func snapsEqual(t *testing.T, got, want *replica.Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot: got=%v want=%v", got, want)
	}
	if got.LastIndex != want.LastIndex || got.LastTerm != want.LastTerm {
		t.Fatalf("boundary mismatch: got %d/%d want %d/%d",
			got.LastIndex, got.LastTerm, want.LastIndex, want.LastTerm)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Fatalf("state mismatch: got %x want %x", got.State, want.State)
	}
	if !reflect.DeepEqual(got.Ledger, want.Ledger) {
		t.Fatalf("ledger mismatch: got %v want %v", got.Ledger, want.Ledger)
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	s := mkSnap(42)
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	snapsEqual(t, got, s)

	// Deterministic encoding regardless of ledger map iteration order.
	a := EncodeSnapshot(s)
	for i := 0; i < 8; i++ {
		if b := EncodeSnapshot(mkSnap(42)); !reflect.DeepEqual(a, b) {
			t.Fatalf("encoding is not deterministic")
		}
	}

	// Empty state and ledger round-trip too.
	e := &replica.Snapshot{LastIndex: 1, LastTerm: 1, State: nil, Ledger: map[uint64]replica.Applied{}}
	got, err = DecodeSnapshot(EncodeSnapshot(e))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.LastIndex != 1 || len(got.State) != 0 || len(got.Ledger) != 0 {
		t.Fatalf("empty round-trip mangled: %+v", got)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	base := EncodeSnapshot(mkSnap(9))
	// Every single-byte flip must be caught by the CRC.
	for i := range base {
		buf := append([]byte(nil), base...)
		buf[i] ^= 0xff
		if _, err := DecodeSnapshot(buf); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Every truncation must be rejected.
	for i := 0; i < len(base); i++ {
		if _, err := DecodeSnapshot(base[:i]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
}

func TestSnapshotSaveLoadAndGC(t *testing.T) {
	dir := t.TempDir()
	for _, last := range []uint64{5, 10, 20} {
		if _, err := saveSnapshot(dir, mkSnap(last), nil, 0, true); err != nil {
			t.Fatalf("save %d: %v", last, err)
		}
	}
	// GC keeps only the newest file.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapFiles []string
	for _, de := range des {
		if _, ok := parseSnapName(de.Name()); ok {
			snapFiles = append(snapFiles, de.Name())
		}
	}
	if len(snapFiles) != 1 || snapFiles[0] != snapName(20) {
		t.Fatalf("after GC: %v, want just %s", snapFiles, snapName(20))
	}
	got, err := loadSnapshot(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	snapsEqual(t, got, mkSnap(20))
}

// A corrupt newest snapshot falls back to the previous valid one, and a
// stray temp from an interrupted install is cleaned up and ignored.
func TestSnapshotCorruptNewestFallsBack(t *testing.T) {
	dir := t.TempDir()
	old := mkSnap(10)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(10)), EncodeSnapshot(old), 0o644); err != nil {
		t.Fatal(err)
	}
	// Newest snapshot: torn half-way (rename happened but write tore —
	// or a bit rotted). Must fall back, not fail, not delete it.
	bad := EncodeSnapshot(mkSnap(20))
	if err := os.WriteFile(filepath.Join(dir, snapName(20)), bad[:len(bad)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Stray temp from an interrupted atomic install.
	tmpName := snapName(30) + ".tmp-12345"
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := loadSnapshot(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	snapsEqual(t, got, old)
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatalf("stray temp survived load")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(20))); err != nil {
		t.Fatalf("corrupt snapshot was deleted (evidence destroyed): %v", err)
	}
}

func TestSnapshotLoadEmptyAndMissingDir(t *testing.T) {
	got, err := loadSnapshot(filepath.Join(t.TempDir(), "nope"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: got %v, %v", got, err)
	}
	got, err = loadSnapshot(t.TempDir())
	if err != nil || got != nil {
		t.Fatalf("empty dir: got %v, %v", got, err)
	}
}

func TestSnapshotNameParsing(t *testing.T) {
	for _, last := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		got, ok := parseSnapName(snapName(last))
		if !ok || got != last {
			t.Fatalf("parseSnapName(%q) = %d, %v", snapName(last), got, ok)
		}
	}
	for _, bad := range []string{"snap-.snap", "snap-xyz.snap", "wal-0000000000000001.log", "snap-01.snap"} {
		if _, ok := parseSnapName(bad); ok {
			t.Fatalf("parseSnapName(%q) accepted", bad)
		}
	}
	if !strings.HasPrefix(snapName(1), snapPrefix) {
		t.Fatalf("snapName prefix broken")
	}
}
