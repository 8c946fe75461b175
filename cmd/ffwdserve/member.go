package main

import (
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"ffwd/internal/apps"
	"ffwd/internal/replica"
	"ffwd/internal/replog"
	"ffwd/internal/reptrans"
)

// runReplicaMember is ffwdserve's follower mode: no client protocol, no
// delegation server — just a durable replication endpoint. It recovers
// its state from -data-dir (torn WAL tails truncated, snapshot
// restored), serves the leader's session over -replica-member's listen
// address, fsyncs every accepted append before acking, snapshots and
// truncates its own log by the leader's rule (-snapshot-every), and
// exits on SIGINT/SIGTERM. The process-kill chaos harness SIGKILLs it at will;
// FFWD_CRASH_POINT arms deterministic self-kills inside WAL writes and
// snapshot installs for the torn-write legs.
func runReplicaMember(listenAddr, dataDir, fsyncPol string, capacity int, snapEvery uint64) {
	if dataDir == "" {
		log.Fatal("ffwdserve: -replica-member requires -data-dir")
	}
	pol, err := replog.ParseSyncPolicy(fsyncPol)
	if err != nil {
		log.Fatal(err)
	}
	crash, err := replog.CrashFromEnv()
	if err != nil {
		log.Fatal(err)
	}
	st, rec, err := replog.Open(dataDir, replog.Options{Sync: pol, Crash: crash})
	if err != nil {
		log.Fatalf("ffwdserve: open member store: %v", err)
	}
	m := replica.NewMember(apps.NewKVMachine(capacity), snapEvery, st)
	if err := m.Recover(rec.Snap, rec.Entries); err != nil {
		log.Fatalf("ffwdserve: recover member state: %v", err)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	srv := reptrans.NewServer(ln, reptrans.ServerConfig{Member: m, Store: st, Logf: log.Printf})
	// The harness parses this line for the bound port, so it must carry
	// the resolved address even when listenAddr asked for :0.
	log.Printf("ffwdserve: replica member listening on %s (dir=%s fsync=%s boots=%d log=%d torn=%d/%dB)",
		srv.Addr(), dataDir, fsyncPol, rec.Meta.Boots, m.LastIndex(), rec.TornRecords, rec.TornBytes)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	srv.Close() // handlers drained: the member is ours to read
	last, commit, applied := srv.MemberState()
	sst, wst := srv.Stats(), st.Stats()
	log.Printf("ffwdserve: replica member %v: log=%d commit=%d applied=%d sessions=%d appends=%d nacks=%d snap_installs=%d log_len=%d wal_appends=%d wal_writes=%d wal_snapshots=%d",
		sig, last, commit, applied, sst.Sessions, sst.Appends, sst.AppendNacks, sst.SnapInstalls,
		m.LogLen(), wst.Appends, wst.Writes, wst.Snapshots)
	if err := st.Close(); err != nil {
		log.Printf("ffwdserve: close member store: %v", err)
	}
	log.Print("ffwdserve: replica member shutdown complete")
}
