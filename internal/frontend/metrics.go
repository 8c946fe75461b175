package frontend

import (
	"sync"
	"sync/atomic"

	"ffwd/internal/obs"
	"ffwd/internal/stats"
)

// Metrics is the frontend's counter set. Everything is lock-free on the
// hot path except the batch-size histogram, which takes a mutex once
// per executor batch (not per operation).
type Metrics struct {
	Accepted atomic.Uint64 // connections accepted (including rejected)
	Rejected atomic.Uint64 // connections refused by MaxConns admission
	Active   atomic.Int64  // currently open connections

	FramesIn atomic.Uint64 // requests decoded
	BytesIn  atomic.Uint64
	BytesOut atomic.Uint64

	DecodeErrors atomic.Uint64 // malformed frames (connection dropped), over-long lines
	QueueSheds   atomic.Uint64 // requests answered busy: pool saturated past ShedTimeout
	IdleReaps    atomic.Uint64 // connections closed by IdleTimeout

	Batches  atomic.Uint64 // executor batches run
	BatchOps atomic.Uint64 // operations across all batches
	Flushes  atomic.Uint64 // response writes (one syscall each)

	mu        sync.Mutex
	batchHist stats.Histogram
}

func (m *Metrics) observeBatch(n int) {
	m.Batches.Add(1)
	m.BatchOps.Add(uint64(n))
	m.mu.Lock()
	m.batchHist.Record(uint64(n))
	m.mu.Unlock()
}

// BatchQuantile reports the q-quantile of executor batch sizes.
func (m *Metrics) BatchQuantile(q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batchHist.Quantile(q)
}

// StatRows declares the frontend's counters and gauges, once, for every
// stats sink (see obs.Registry), named under the codec's prefixes.
func (s *Server) StatRows() []obs.Row {
	m := &s.met
	rows := []obs.Row{
		{Name: "accepted_total", Key: "accepted", Help: "connections accepted", Value: float64(m.Accepted.Load())},
		{Name: "rejected_total", Key: "rejected", Help: "connections refused by admission", Value: float64(m.Rejected.Load())},
		{Name: "frames_in_total", Key: "frames", Help: "requests decoded", Value: float64(m.FramesIn.Load())},
		{Name: "batches_total", Key: "batches", Help: "executor batches run", Value: float64(m.Batches.Load())},
		{Name: "flushes_total", Key: "flushes", Help: "response flushes (one write syscall each)", Value: float64(m.Flushes.Load())},
		{Name: "queue_sheds_total", Key: "queue_sheds", Help: "requests shed with BUSY: executor pool saturated past the shed timeout", Value: float64(m.QueueSheds.Load())},
		{Name: "decode_errors_total", Key: "decode_errors", Help: "malformed frames (connection dropped) or over-long lines", Value: float64(m.DecodeErrors.Load())},
		{Name: "idle_reaps_total", Key: "idle_reaps", Help: "connections reaped by idle timeout", Value: float64(m.IdleReaps.Load())},
		{Name: "batch_ops_total", Key: "batch_ops", Help: "operations executed across batches", Value: float64(m.BatchOps.Load())},
		{Name: "bytes_in_total", Key: "bytes_in", Help: "bytes read from clients", Value: float64(m.BytesIn.Load())},
		{Name: "bytes_out_total", Key: "bytes_out", Help: "bytes written to clients", Value: float64(m.BytesOut.Load())},
		{Name: "active_conns", Key: "active", Help: "currently open connections", Value: float64(m.Active.Load())},
		{Name: "batch_p50", Key: "batch_p50", Help: "median executor batch size", Value: m.BatchQuantile(0.50)},
		{Name: "batch_p99", Key: "batch_p99", Help: "p99 executor batch size", Value: m.BatchQuantile(0.99)},
	}
	for i := range rows {
		rows[i].Name, rows[i].Key = s.traits.StatName+rows[i].Name, s.traits.StatKey+rows[i].Key
	}
	return rows
}
