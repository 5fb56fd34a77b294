package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptrace"
	"time"

	"hpclog/client"
	"hpclog/internal/api"
	"hpclog/internal/obs"
	"hpclog/internal/store"
)

// applyChunk bounds one /v1/replicate batch. Replication is idempotent
// (rows carry coordinator stamps, replicas reconcile last-write-wins), so
// re-sending a chunk after a partial failure is safe.
const applyChunk = 4096

// remoteReplica implements store.Remote over the hpclog/client SDK: the
// wire transport the store uses to reach ring members hosted by peer
// processes. Every method is one (or a few) cluster-internal RPCs with a
// per-call timeout; errors surface to the store, which converts them into
// hints (writes) or falls through to other replicas (reads). The caller's
// context parents each RPC, so its request ID rides the wire (the SDK
// stamps X-Request-Id from it) and one distributed request traces under
// a single ID on every process; lat, when set, accumulates this peer's
// replication RPC latency for /v1/metrics.
type remoteReplica struct {
	id      string // ring member id this transport addresses
	cli     *client.Client
	timeout time.Duration
	lat     *obs.Hist // per-peer replication latency (nil = untracked)
}

var _ store.Remote = (*remoteReplica)(nil)

func (r *remoteReplica) ctx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeout(parent, r.timeout)
}

// Apply replicates a pre-stamped batch, chunked so one oversized batch
// cannot exceed the peer's replication body cap.
func (r *remoteReplica) Apply(parent context.Context, table, pkey string, rows []store.Row) error {
	started := time.Now()
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > applyChunk {
			chunk = chunk[:applyChunk]
		}
		rows = rows[len(chunk):]
		ctx, cancel := r.ctx(parent)
		_, err := r.cli.Replicate(ctx, api.ReplicateRequest{
			Node:  r.id,
			Table: table,
			PKey:  pkey,
			Rows:  api.RowsToWire(chunk),
		})
		cancel()
		if err != nil {
			return err
		}
	}
	if r.lat != nil {
		r.lat.Record(time.Since(started))
	}
	return nil
}

// errScanClosed is the cancellation cause of a scan its consumer closed:
// the stream's end is then no error.
var errScanClosed = errors.New("dist: shard scan closed")

// Scan streams the partition over /v1/shard/scan, adapting the push-style
// SDK callback to the store's pull-style RowIter through a channel. The
// stream goroutine exits when the server finishes, errors, or the
// iterator is closed (which cancels the request context).
//
// The peer must make progress within the RPC timeout — answer the
// request (it sends its headers as soon as the scan is open), then send
// each next row — or the scan fails. Time the consumer takes to pull a
// row is not the peer's, and a stream that keeps flowing has no total
// deadline: a scan legitimately outlives an RPC, and closing the iterator
// cancels it instead. The parent's cancellation (client gone) propagates,
// and its request ID rides the wire.
func (r *remoteReplica) Scan(parent context.Context, table, pkey string, rg store.Range) (store.RowIter, error) {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	stall := time.AfterFunc(r.timeout, func() {
		cancel(fmt.Errorf("dist: shard scan of %s: no progress within %v: %w", r.id, r.timeout, context.DeadlineExceeded))
	})
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { stall.Reset(r.timeout) },
	})
	it := &remoteScanIter{
		rows:   make(chan store.Row, 256),
		done:   make(chan struct{}),
		cancel: func() { cancel(errScanClosed) },
	}
	go func() {
		err := r.cli.ShardScan(ctx, api.ShardScanRequest{
			Node: r.id, Table: table, PKey: pkey, From: rg.From, To: rg.To,
		}, func(w api.WireRow) error {
			stall.Stop()
			select {
			case it.rows <- w.Row():
				stall.Reset(r.timeout)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		stall.Stop()
		if err != nil && ctx.Err() != nil {
			err = context.Cause(ctx)
		}
		if !errors.Is(err, errScanClosed) {
			it.err = err
		}
		// done closes before rows: a consumer that has drained rows sees
		// the final err.
		close(it.done)
		close(it.rows)
	}()
	return it, nil
}

// remoteScanIter is the pull side of a streamed shard scan. err is written
// by the stream goroutine strictly before done and rows are closed, and
// read by the consumer strictly after one of them is, so no lock is
// needed.
type remoteScanIter struct {
	rows   chan store.Row
	done   chan struct{}
	cancel func()
	err    error
	closed bool
}

func (it *remoteScanIter) Next() (store.Row, bool) {
	if it.closed {
		return store.Row{}, false
	}
	row, ok := <-it.rows
	return row, ok
}

func (it *remoteScanIter) Err() error {
	select {
	case <-it.done:
		return it.err
	default:
		return nil
	}
}

func (it *remoteScanIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.cancel()
	// Wait for the stream goroutine so err is settled and the response
	// body is released before Close returns.
	<-it.done
	return nil
}

func (r *remoteReplica) KeyBounds(parent context.Context, table, pkey string) (string, string, bool, error) {
	ctx, cancel := r.ctx(parent)
	defer cancel()
	res, err := r.cli.ShardBounds(ctx, api.ShardBoundsRequest{
		Node: r.id, Table: table, PKey: pkey,
	})
	if err != nil {
		return "", "", false, err
	}
	return res.Min, res.Max, res.OK, nil
}

func (r *remoteReplica) PartitionKeys(parent context.Context, table string) ([]string, error) {
	ctx, cancel := r.ctx(parent)
	defer cancel()
	return r.cli.ShardPartitions(ctx, r.id, table)
}
