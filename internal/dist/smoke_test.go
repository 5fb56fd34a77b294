package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/testutil"
)

// buildHpclogd compiles cmd/hpclogd into a temp directory.
func buildHpclogd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hpclogd")
	build := exec.Command("go", "build", "-o", bin, "hpclog/cmd/hpclogd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build hpclogd: %v", err)
	}
	return bin
}

// freeAddr reserves a loopback port, then frees it for a daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestClusterProcessSmoke is the real-process acceptance behind
// `make cluster-smoke`: it builds cmd/hpclogd, spawns a 3-process RF=3
// cluster, drives it over the public wire protocol, kills one process
// with SIGKILL mid-traffic, asserts quorum reads and writes keep passing,
// restarts the process, and asserts its own replica converges to every
// acked write. The in-process cluster tests prove byte-level corpus
// fidelity; this test proves the same machinery survives genuine process
// boundaries and a genuine kill -9.
//
// Gated behind HPCLOG_CLUSTER_SMOKE=1: it compiles a binary and binds
// real ports, which is CI material, not unit-test material.
func TestClusterProcessSmoke(t *testing.T) {
	if os.Getenv("HPCLOG_CLUSTER_SMOKE") != "1" {
		t.Skip("set HPCLOG_CLUSTER_SMOKE=1 to run the multi-process cluster smoke test")
	}

	bin := buildHpclogd(t)

	const n = 3
	addrs := make([]string, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = freeAddr(t)
		urls[i] = "http://" + addrs[i]
	}
	ids := []string{"a", "b", "c"}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}

	procs := make([]*exec.Cmd, n)
	start := func(i int) {
		t.Helper()
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, ids[j]+"="+urls[j])
			}
		}
		cmd := exec.Command(bin,
			"-id", ids[i],
			"-listen", addrs[i],
			"-advertise", urls[i],
			"-peers", strings.Join(peers, ","),
			"-data-dir", dirs[i],
			"-rf", "3",
			"-machine-nodes", "64",
			"-heartbeat-interval", "100ms",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", ids[i], err)
		}
		procs[i] = cmd
	}
	for i := 0; i < n; i++ {
		start(i)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	})

	ctx := context.Background()
	clients := make([]*client.Client, n)
	for i := range clients {
		clients[i] = client.New(urls[i])
	}

	// Wait until every process reports every member up.
	waitStatus := func(check func(i int) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(testutil.Scaled(60 * time.Second))
		for {
			ok := true
			for i := range clients {
				if procs[i] == nil {
					continue
				}
				if !check(i) {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster never reached: %s", what)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	allUp := func(i int) bool {
		st, err := clients[i].ClusterStatus(ctx)
		if err != nil {
			return false
		}
		for _, m := range st.Members {
			if !m.Up {
				return false
			}
		}
		return len(st.Members) == n
	}
	waitStatus(allUp, "all members up on all processes")

	// Quorum writes over the public wire protocol (CQL INSERT at QUORUM),
	// round-robined across coordinators.
	sessions := make([]*client.Session, n)
	for i := range sessions {
		sessions[i] = clients[i].Session("QUORUM")
	}
	insert := func(phase string, from, to int) {
		t.Helper()
		for s := from; s < to; s++ {
			coord := sessions[s%n]
			if procs[s%n] == nil {
				coord = sessions[(s+1)%n]
			}
			stmt := fmt.Sprintf(
				"INSERT INTO event_by_time (partition, key, v, phase) VALUES ('p%d', 'k%04d', '%d', '%s')",
				s%4, s, s, phase)
			if _, err := coord.Execute(ctx, stmt); err != nil {
				t.Fatalf("%s insert %d not acked: %v", phase, s, err)
			}
		}
	}
	countRows := func(sess *client.Session) int {
		t.Helper()
		total := 0
		for p := 0; p < 4; p++ {
			res, err := sess.Execute(ctx, fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = 'p%d'", p))
			if err != nil {
				t.Fatalf("select p%d: %v", p, err)
			}
			total += len(res.Rows)
		}
		return total
	}

	insert("steady", 0, 40)
	for i := 0; i < n; i++ {
		if got := countRows(sessions[i]); got != 40 {
			t.Fatalf("node %s sees %d/40 rows before kill", ids[i], got)
		}
	}

	// kill -9 process c, keep writing through a and b: quorum (2 of 3)
	// must keep acking, and quorum reads must still see everything.
	if err := procs[2].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	procs[2].Wait()
	procs[2] = nil
	insert("outage", 40, 80)
	for i := 0; i < 2; i++ {
		if got := countRows(sessions[i]); got != 80 {
			t.Fatalf("node %s sees %d/80 rows during outage", ids[i], got)
		}
	}

	// Restart c from its data directory: commitlog replay plus hinted
	// handoff plus anti-entropy must converge its replica to all 80 acked
	// rows — verified at consistency ONE against c alone, so the answer
	// comes from c's own shard, not a quorum merge.
	start(2)
	waitStatus(allUp, "killed member rejoined and marked up everywhere")
	deadline := time.Now().Add(testutil.Scaled(60 * time.Second))
	one := clients[2].Session("ONE")
	for {
		if got := countRows(one); got == 80 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("rejoined node converged to only %d/80 rows", got)
		}
		time.Sleep(200 * time.Millisecond)
	}
	insert("recovered", 80, 100)
	for i := 0; i < n; i++ {
		if got := countRows(sessions[i]); got != 100 {
			t.Fatalf("node %s sees %d/100 rows after recovery", ids[i], got)
		}
	}
}

// TestSingleProcessSmoke is the real-process acceptance of the default
// shape, hpclogd without -peers: one process generates and imports a demo
// corpus into a durable directory, serves a non-empty heat map with every
// member local, exits 0 on SIGTERM within -drain-timeout, and, restarted
// on the same directory without -generate, replays it into the same
// heat-map bytes. Without -data-dir the process stores under a directory
// of its own in TMPDIR and leaves TMPDIR empty when it exits, and it
// refuses -tier without touching the tier's objects.
//
// Gated behind HPCLOG_CLUSTER_SMOKE=1 with TestClusterProcessSmoke.
func TestSingleProcessSmoke(t *testing.T) {
	if os.Getenv("HPCLOG_CLUSTER_SMOKE") != "1" {
		t.Skip("set HPCLOG_CLUSTER_SMOKE=1 to run the single-process smoke test")
	}
	bin := buildHpclogd(t)
	addr, dir := freeAddr(t), t.TempDir()
	cli := client.New("http://" + addr)
	ctx := context.Background()
	const drain = 5 * time.Second

	var (
		proc   *exec.Cmd
		exited chan error // receives proc's Wait result; nil once taken
	)
	// start runs hpclogd with env added to this process's environment.
	start := func(env []string, extra ...string) {
		t.Helper()
		args := append([]string{"-listen", addr, "-store-nodes", "4",
			"-drain-timeout", drain.String()}, extra...)
		proc = exec.Command(bin, args...)
		proc.Env = append(os.Environ(), env...)
		proc.Stdout, proc.Stderr = os.Stderr, os.Stderr
		if err := proc.Start(); err != nil {
			t.Fatalf("start hpclogd: %v", err)
		}
		exited = make(chan error, 1)
		go func(p *exec.Cmd, done chan<- error) { done <- p.Wait() }(proc, exited)
		deadline := time.Now().Add(testutil.Scaled(120 * time.Second))
		for cli.Health(ctx) != nil {
			select {
			case err := <-exited:
				exited = nil
				t.Fatalf("hpclogd exited before serving: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("hpclogd never became healthy")
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	t.Cleanup(func() {
		if exited != nil {
			proc.Process.Kill()
			<-exited
		}
	})

	generate := []string{"-generate", "-hours", "1", "-cabinets", "2"}
	start(nil, append([]string{"-data-dir", dir}, generate...)...)
	from := logs.DefaultConfig().Start
	req := query.Request{Op: query.OpHeatmap, Context: query.Context{
		EventType: string(model.MCE), From: from.Unix(), To: from.Add(time.Hour).Unix()}}
	heatmap := func() json.RawMessage {
		t.Helper()
		raw, err := cli.Do(ctx, req)
		if err != nil {
			t.Fatalf("heatmap: %v", err)
		}
		return raw
	}
	nonEmptyHeatmap := func() json.RawMessage {
		t.Helper()
		raw := heatmap()
		var hm struct{ Total int }
		if err := json.Unmarshal(raw, &hm); err != nil || hm.Total == 0 {
			t.Fatalf("empty MCE heat map (err %v): %s", err, raw)
		}
		return raw
	}
	first := nonEmptyHeatmap()
	st, err := cli.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 4 {
		t.Fatalf("%d members, want 4", len(st.Members))
	}
	for _, m := range st.Members {
		if !m.Local || !m.Up {
			t.Fatalf("member %+v not local and up", m)
		}
	}

	stop := func() {
		t.Helper()
		if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			exited = nil
			if err != nil {
				t.Fatalf("hpclogd exited with %v after SIGTERM, want 0", err)
			}
		case <-time.After(testutil.Scaled(drain)):
			t.Fatal("hpclogd did not exit within -drain-timeout of SIGTERM")
		}
	}
	stop()

	start(nil, "-data-dir", dir)
	if again := heatmap(); !bytes.Equal(again, first) {
		t.Fatalf("heat map after restart:\n%s\nwant:\n%s", again, first)
	}
	stop()

	// No -data-dir: a directory of its own under TMPDIR, gone at exit.
	tmp := t.TempDir()
	emptyTmp := func(when string) {
		t.Helper()
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Fatalf("TMPDIR %s: %v %v", when, left, err)
		}
	}
	start([]string{"TMPDIR=" + tmp}, generate...)
	nonEmptyHeatmap()
	storage, err := cli.StorageStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(storage.Dir, tmp+string(filepath.Separator)) {
		t.Fatalf("storage dir %q, want one under TMPDIR %s", storage.Dir, tmp)
	}
	stop()
	emptyTmp("after SIGTERM")

	// -tier without -data-dir is refused before anything opens: a fresh
	// directory's empty TIER manifest would have open delete the object.
	tierDir := t.TempDir()
	object := filepath.Join(tierDir, "node-store00", "000001.seg")
	if err := os.MkdirAll(filepath.Dir(object), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(object, []byte("an object another directory's manifest names"), 0o644); err != nil {
		t.Fatal(err)
	}
	refusedCtx, cancel := context.WithTimeout(ctx, testutil.Scaled(30*time.Second))
	defer cancel()
	refused := exec.CommandContext(refusedCtx, bin, "-listen", addr, "-store-nodes", "4", "-tier", "fs", "-tier-dir", tierDir)
	refused.Env = append(os.Environ(), "TMPDIR="+tmp)
	if out, err := refused.CombinedOutput(); refused.ProcessState == nil || refused.ProcessState.ExitCode() != 1 {
		t.Fatalf("hpclogd -tier without -data-dir: %v, want exit status 1:\n%s", err, out)
	}
	if b, err := os.ReadFile(object); err != nil || string(b) != "an object another directory's manifest names" {
		t.Fatalf("tier object touched: %q %v", b, err)
	}
	if entries, err := os.ReadDir(tierDir); err != nil || len(entries) != 1 {
		t.Fatalf("tier dir holds %v (%v), want the one prefix", entries, err)
	}
	emptyTmp("after the refused -tier run")
}
