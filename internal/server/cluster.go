// Cluster-internal routes: replication (/v1/replicate), shard
// scatter-gather (/v1/shard/*), and membership/status
// (/v1/cluster, /v1/cluster/heartbeat). The data-path handlers work
// directly against the store — ownership fencing lives in
// store.ApplyReplicated and store.LocalReplica, keyed by the ring-member id
// every request must carry — while liveness and status are delegated to a
// ClusterBackend attached by the cluster runtime (internal/dist). Without
// a backend the server still answers /v1/cluster with its single-process
// view, so logctl cluster works against any deployment.
package server

import (
	"errors"
	"io"
	"net/http"

	"hpclog/internal/api"
	"hpclog/internal/store"
)

// ClusterBackend is the cluster runtime's surface inside the server: the
// process's membership view and the heartbeat receiver. Attach before the
// server starts serving.
type ClusterBackend interface {
	// Status reports the ring as this process sees it.
	Status() api.ClusterStatus
	// Heartbeat ingests a peer liveness probe and answers with the local
	// identity and logical clock.
	Heartbeat(api.HeartbeatRequest) (api.HeartbeatResponse, *api.Error)
}

// AttachCluster installs the cluster runtime behind /v1/cluster and
// /v1/cluster/heartbeat. Call before serving traffic.
func (s *Server) AttachCluster(b ClusterBackend) { s.cluster = b }

// registerClusterRoutes wires the cluster-internal routes onto the mux.
func (s *Server) registerClusterRoutes() {
	s.handle("POST /v1/replicate", s.limited("cluster", s.handleReplicate))
	s.handle("POST /v1/shard/scan", s.limited("cluster", s.handleShardScan))
	s.handle("POST /v1/shard/bounds", s.limited("cluster", s.handleShardBounds))
	s.handle("GET /v1/shard/partitions", s.handleShardPartitions)
	s.handle("GET /v1/shard/segments", s.handleShardSegments)
	s.handle("GET /v1/cluster", s.handleClusterStatus)
	s.handle("POST /v1/cluster/heartbeat", s.limited("cluster", s.handleHeartbeat))
}

// readRawBody reads a capped POST body for the strict cluster decoders.
func readRawBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *api.Error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, api.Errorf(api.CodeTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, api.Errorf(api.CodeBadRequest, "read request body: %v", err)
	}
	return data, nil
}

// handleReplicate answers POST /v1/replicate: apply one pre-stamped batch
// to a locally-hosted ring member. The body cap is apart from
// MaxBodyBytes: a replica batch legitimately outgrows the public-API limit.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		data, aerr := readRawBody(w, r, replicateMaxBodyBytes)
		if aerr != nil {
			return nil, aerr
		}
		req, aerr := api.DecodeReplicateRequest(data)
		if aerr != nil {
			return nil, aerr
		}
		rows := api.WireToRows(req.Rows)
		if err := s.db.ApplyReplicated(req.Node, req.Table, req.PKey, rows); err != nil {
			return nil, toAPIError(err)
		}
		return api.ReplicateResult{Applied: len(rows), WriteTS: s.db.WriteTS()}, nil
	})(w, r)
}

// handleShardScan answers POST /v1/shard/scan: the member's batch scan of
// the partition as an NDJSON stream of WireRows, each encoded before the
// next batch is read, trailer last — the transport behind a remote
// coordinator's store.RowIter, and the one read a peer serves. The
// headers go out as soon as the scan is open: the coordinator bounds the
// wait for them, and for each next row, by its RPC timeout, never the
// whole stream.
func (s *Server) handleShardScan(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	data, aerr := readRawBody(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	req, aerr := api.DecodeShardScanRequest(data)
	if aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	n, err := s.db.LocalReplica(req.Node)
	if err != nil {
		s.writeV1(w, started, reqID, nil, toAPIError(err))
		return
	}
	it, err := n.Batches(r.Context(), req.Table, req.PKey, store.Range{From: req.From, To: req.To})
	if err != nil {
		s.writeV1(w, started, reqID, nil, toAPIError(err))
		return
	}
	defer it.Close()
	nd := newNDJSON(w, reqID)
	defer nd.release()
	nd.begin()
	if nd.flush() != nil {
		return
	}
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		for i := range b.Len() {
			if err := nd.emit(api.RowToWire(b.Row(i))); err != nil {
				// The peer hung up mid-stream; nothing sensible left to write.
				return
			}
		}
	}
	nd.finish(it.Err())
}

// handleShardBounds answers POST /v1/shard/bounds.
func (s *Server) handleShardBounds(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		data, aerr := readRawBody(w, r, s.cfg.MaxBodyBytes)
		if aerr != nil {
			return nil, aerr
		}
		req, aerr := api.DecodeShardBoundsRequest(data)
		if aerr != nil {
			return nil, aerr
		}
		n, err := s.db.LocalReplica(req.Node)
		if err != nil {
			return nil, toAPIError(err)
		}
		min, max, ok, err := n.KeyBounds(r.Context(), req.Table, req.PKey)
		if err != nil {
			return nil, toAPIError(err)
		}
		return api.ShardBoundsResult{Min: min, Max: max, OK: ok}, nil
	})(w, r)
}

// handleShardPartitions answers GET /v1/shard/partitions?node=&table=.
func (s *Server) handleShardPartitions(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		node := r.URL.Query().Get("node")
		table := r.URL.Query().Get("table")
		if node == "" || table == "" {
			return nil, api.Errorf(api.CodeBadRequest, "node and table query parameters are required")
		}
		n, err := s.db.LocalReplica(node)
		if err != nil {
			return nil, toAPIError(err)
		}
		keys, err := n.PartitionKeys(r.Context(), table)
		if err != nil {
			return nil, toAPIError(err)
		}
		return api.ShardPartitionsResult{Keys: keys}, nil
	})(w, r)
}

// handleShardSegments answers GET /v1/shard/segments: every local node's
// on-disk segment inventory — sequence, key range, row count, Merkle
// root, and tier placement (resident / uploaded / evicted). Replicas
// compare per-segment roots to spot divergence without transferring
// segment data.
func (s *Server) handleShardSegments(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		nodes := s.db.SegmentInfos()
		if nodes == nil {
			nodes = []store.SegmentListing{}
		}
		return api.SegmentsPayload{Nodes: nodes}, nil
	})(w, r)
}

// handleClusterStatus answers GET /v1/cluster. With a backend attached
// the cluster runtime answers; otherwise the store's own view — every
// member local, liveness as the ring sees it — so the endpoint is useful
// on single-process deployments too.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		if s.cluster != nil {
			return s.cluster.Status(), nil
		}
		return s.localClusterStatus(), nil
	})(w, r)
}

// localClusterStatus synthesizes /v1/cluster for a single-process store.
func (s *Server) localClusterStatus() api.ClusterStatus {
	ring := s.db.Ring()
	shares := ring.Ownership()
	st := api.ClusterStatus{
		RF:      ring.ReplicationFactor(),
		WriteTS: s.db.WriteTS(),
	}
	for _, id := range s.db.Members() {
		st.Members = append(st.Members, api.MemberStatus{
			ID:           id,
			Local:        s.db.IsLocalMember(id),
			Up:           ring.IsUp(id),
			Share:        shares[id],
			PendingHints: s.db.PendingHints(id),
		})
	}
	return st
}

// handleHeartbeat answers POST /v1/cluster/heartbeat.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.v1(func(w http.ResponseWriter, r *http.Request) (any, *api.Error) {
		data, aerr := readRawBody(w, r, s.cfg.MaxBodyBytes)
		if aerr != nil {
			return nil, aerr
		}
		req, aerr := api.DecodeHeartbeat(data)
		if aerr != nil {
			return nil, aerr
		}
		if s.cluster == nil {
			return nil, api.Errorf(api.CodeBadRequest, "this process is not part of a cluster")
		}
		resp, herr := s.cluster.Heartbeat(*req)
		if herr != nil {
			return nil, herr
		}
		return resp, nil
	})(w, r)
}
