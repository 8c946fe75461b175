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

	FramesIn atomic.Uint64 // request frames decoded
	BytesIn  atomic.Uint64
	BytesOut atomic.Uint64

	DecodeErrors atomic.Uint64 // malformed frames (connection dropped)
	QueueSheds   atomic.Uint64 // requests answered RespBusy: shard queue full
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
// stats sink (see obs.Registry).
func (s *Server) StatRows() []obs.Row {
	m := &s.met
	depth, capacity := s.QueueDepth()
	return []obs.Row{
		{Name: "ffwd_frontend_accepted_total", Key: "bin_accepted", Help: "binary frontend connections accepted", Value: float64(m.Accepted.Load())},
		{Name: "ffwd_frontend_rejected_total", Key: "bin_rejected", Help: "binary frontend connections refused by admission", Value: float64(m.Rejected.Load())},
		{Name: "ffwd_frontend_frames_in_total", Key: "bin_frames", Help: "request frames decoded", Value: float64(m.FramesIn.Load())},
		{Name: "ffwd_frontend_batches_total", Key: "bin_batches", Help: "executor batches run", Value: float64(m.Batches.Load())},
		{Name: "ffwd_frontend_flushes_total", Key: "bin_flushes", Help: "response flushes (one write syscall each)", Value: float64(m.Flushes.Load())},
		{Name: "ffwd_frontend_queue_sheds_total", Key: "bin_queue_sheds", Help: "requests shed with BUSY: shard queue full", Value: float64(m.QueueSheds.Load())},
		{Name: "ffwd_frontend_decode_errors_total", Key: "bin_decode_errors", Help: "malformed frames (connection dropped)", Value: float64(m.DecodeErrors.Load())},
		{Name: "ffwd_frontend_idle_reaps_total", Key: "bin_idle_reaps", Help: "connections reaped by idle timeout", Value: float64(m.IdleReaps.Load())},
		{Name: "ffwd_frontend_batch_ops_total", Key: "bin_batch_ops", Help: "operations executed across batches", Value: float64(m.BatchOps.Load())},
		{Name: "ffwd_frontend_bytes_in_total", Key: "bin_bytes_in", Help: "bytes read from clients", Value: float64(m.BytesIn.Load())},
		{Name: "ffwd_frontend_bytes_out_total", Key: "bin_bytes_out", Help: "bytes written to clients", Value: float64(m.BytesOut.Load())},
		{Name: "ffwd_frontend_active_conns", Key: "bin_active", Help: "currently open binary frontend connections", Value: float64(m.Active.Load())},
		{Name: "ffwd_frontend_queue_depth", Key: "bin_queue_depth", Help: "queued requests across shard executors", Value: float64(depth)},
		{Name: "ffwd_frontend_queue_capacity", Key: "bin_queue_capacity", Help: "aggregate shard queue capacity", Value: float64(capacity)},
		{Name: "ffwd_frontend_batch_p50", Key: "bin_batch_p50", Help: "median executor batch size", Value: m.BatchQuantile(0.50)},
		{Name: "ffwd_frontend_batch_p99", Key: "bin_batch_p99", Help: "p99 executor batch size", Value: m.BatchQuantile(0.99)},
	}
}
