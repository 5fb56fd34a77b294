package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"hpclog/internal/api"
)

// Cluster-internal calls. hpclogd processes replicate writes and
// scatter-gather reads to each other through these methods over the same
// SDK the public API uses — retries and protocol negotiation included.
// Replication is idempotent (rows carry their write timestamps and
// replicas reconcile last-write-wins), so the SDK's transport retry
// policy is safe here.

// Replicate applies one pre-stamped batch to a ring member hosted by the
// target process (POST /v1/replicate).
func (c *Client) Replicate(ctx context.Context, req api.ReplicateRequest) (api.ReplicateResult, error) {
	var out api.ReplicateResult
	err := c.call(ctx, http.MethodPost, "/v1/replicate", req, &out)
	return out, err
}

// ShardScan streams one partition's rows from a member hosted by the
// target process (POST /v1/shard/scan, NDJSON), invoking fn per row in
// clustering-key order. fn returning an error cancels the stream. A
// failure before the peer opens the stream — a transport error, or the
// peer overloaded or unavailable — is retried like a call; a failure once
// rows flow is not, as fn has seen part of the partition.
func (c *Client) ShardScan(ctx context.Context, req api.ShardScanRequest, fn func(api.WireRow) error) error {
	return stream(ctx, c, "/v1/shard/scan", req, c.retries, fn)
}

// ShardBounds fetches a partition's clustering-key bounds on one member
// (POST /v1/shard/bounds).
func (c *Client) ShardBounds(ctx context.Context, req api.ShardBoundsRequest) (api.ShardBoundsResult, error) {
	var out api.ShardBoundsResult
	err := c.call(ctx, http.MethodPost, "/v1/shard/bounds", req, &out)
	return out, err
}

// ShardPartitions lists the partition keys one member holds for a table
// (GET /v1/shard/partitions).
func (c *Client) ShardPartitions(ctx context.Context, node, table string) ([]string, error) {
	path := fmt.Sprintf("/v1/shard/partitions?node=%s&table=%s",
		url.QueryEscape(node), url.QueryEscape(table))
	var out api.ShardPartitionsResult
	if err := c.call(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// Heartbeat probes a peer's liveness and exchanges logical clocks
// (POST /v1/cluster/heartbeat).
func (c *Client) Heartbeat(ctx context.Context, req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	var out api.HeartbeatResponse
	err := c.call(ctx, http.MethodPost, "/v1/cluster/heartbeat", req, &out)
	return out, err
}

// ClusterStatus fetches the target process's view of the ring: members,
// liveness, ownership shares, and pending replication hints
// (GET /v1/cluster).
func (c *Client) ClusterStatus(ctx context.Context) (api.ClusterStatus, error) {
	var out api.ClusterStatus
	err := c.call(ctx, http.MethodGet, "/v1/cluster", nil, &out)
	return out, err
}
