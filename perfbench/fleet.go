package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/obs"
	"mtcache/internal/resilience"
	"mtcache/internal/storage"
	"mtcache/internal/tpcw"
	"mtcache/internal/wire"
)

// The fleet is three OS processes: the driver (this process, holding the
// router), one cache server and one durable backend. The two servers are
// this same binary re-executed with a role sub-command, so the benchmark
// builds one program and needs nothing else from the checkout.
const (
	roleBackend = "child-backend"
	roleCache   = "child-cache"
)

const (
	// pullInterval is the cache's replication pull cadence.
	pullInterval = 25 * time.Millisecond
	// readerInterval is the backend's log-reader and distribution cadence,
	// the one cmd/backend-server ships with. A cache pull also runs the log
	// reader synchronously, so this only matters to in-process subscribers.
	readerInterval = 100 * time.Millisecond
	// syncPolicy is the backend WAL's flush policy: group commit.
	syncPolicy = "group"
)

// probeDDL creates the freshness probe's table on the backend. No workload
// reads it, so probe writes invalidate no workload intermediate results.
var probeDDL = []string{
	`CREATE TABLE bench_probe (id INT PRIMARY KEY, v INT)`,
	`INSERT INTO bench_probe (id, v) VALUES (1, 0)`,
}

// probeViewDDL caches the probe table, so probe writes replicate to the
// cache like any workload write.
const probeViewDDL = `CREATE CACHED VIEW cv_probe AS SELECT id, v FROM bench_probe`

// runChild dispatches a role sub-command. It reports whether args named
// one; the process exits inside when it did.
func runChild(args []string) bool {
	if len(args) == 0 || (args[0] != roleBackend && args[0] != roleCache) {
		return false
	}
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	dir := fs.String("dir", "", "backend data directory")
	backendAddr := fs.String("backend", "", "backend wire address")
	items := fs.Int("items", 0, "TPC-W items")
	customers := fs.Int("customers", 0, "TPC-W customers")
	fs.Parse(args[1:]) //nolint:errcheck — ExitOnError
	var err error
	if args[0] == roleBackend {
		cfg := tpcw.DefaultConfig()
		cfg.Items, cfg.Customers = *items, *customers
		err = serveBackend(*dir, cfg)
	} else {
		err = serveCache(*backendAddr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", args[0], err)
		os.Exit(1)
	}
	os.Exit(0)
	return true
}

// newDurableBackend loads TPC-W plus the probe table into a backend whose
// commits go to a group-committed WAL under dir, and checkpoints the
// (unlogged) bulk load so the dataset itself is durable.
func newDurableBackend(dir string, cfg tpcw.Config) (*core.BackendServer, error) {
	policy, err := storage.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return nil, err
	}
	b, err := core.NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir, Policy: policy})
	if err != nil {
		return nil, err
	}
	if err := tpcw.Load(b, cfg); err != nil {
		b.DB.CloseStore() //nolint:errcheck — already failing
		return nil, err
	}
	for _, ddl := range probeDDL {
		if _, err := b.Exec(ddl, nil); err != nil {
			b.DB.CloseStore() //nolint:errcheck — already failing
			return nil, fmt.Errorf("probe table: %w", err)
		}
	}
	if _, err := b.DB.Checkpoint(); err != nil {
		b.DB.CloseStore() //nolint:errcheck — already failing
		return nil, err
	}
	return b, nil
}

// serveBackend is the backend process: a durable TPC-W backend serving the
// wire protocol and /metrics.json until stdin closes.
func serveBackend(dir string, cfg tpcw.Config) error {
	b, err := newDurableBackend(dir, cfg)
	if err != nil {
		return err
	}
	defer b.DB.CloseStore() //nolint:errcheck — data is scratch
	b.StartReplication(readerInterval, readerInterval)
	defer b.StopReplication()
	srv, err := wire.Serve(b, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	return announceAndWait(srv.Addr())
}

// serveCache is the cache process with the paper's §6.1 configuration: the
// four cached views with their backend indexes and every procedure except
// the update-dominated ones (what tpcw.SetupCache does in process), plus
// the probe view, pulling every pullInterval.
func serveCache(backendAddr string) error {
	client, err := wire.DialResilient(backendAddr, resilience.DefaultPolicy(), nil)
	if err != nil {
		return err
	}
	defer client.Close()
	cache, err := wire.NewRemoteCache("cache", client, nil)
	if err != nil {
		return err
	}
	for _, ddl := range append(append([]string(nil), tpcw.CachedViewDDL...), probeViewDDL) {
		if err := cache.CreateCachedView(ddl); err != nil {
			return fmt.Errorf("cached view: %w", err)
		}
	}
	for _, ddl := range tpcw.CachedViewIndexDDL {
		if _, err := cache.DB.Exec(ddl, nil); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	skip := map[string]bool{}
	for _, p := range tpcw.UpdateDominatedProcs {
		skip[strings.ToLower(p)] = true
	}
	for _, text := range tpcw.ProcedureDDL {
		if skip[strings.ToLower(procNameOf(text))] {
			continue
		}
		if err := cache.CopyProcedureText(text); err != nil {
			return fmt.Errorf("procedure: %w", err)
		}
	}
	cache.StartPulling(pullInterval)
	defer cache.StopPulling()
	srv, err := wire.ServeCache(cache, "127.0.0.1:0", wire.ServerOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	return announceAndWait(srv.Addr())
}

// announceAndWait starts the observability endpoint, prints the READY
// handshake and serves until the parent closes stdin.
func announceAndWait(wireAddr string) error {
	httpAddr, closeHTTP, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		return err
	}
	defer closeHTTP() //nolint:errcheck
	fmt.Printf("READY %s %s\n", wireAddr, httpAddr)
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck — EOF or error both mean stop
	return nil
}

// procNameOf extracts the procedure name from a CREATE PROCEDURE statement.
func procNameOf(ddl string) string {
	fields := strings.Fields(ddl)
	for i := 0; i+1 < len(fields); i++ {
		if strings.EqualFold(fields[i], "PROCEDURE") {
			return fields[i+1]
		}
	}
	return ""
}

// child is one spawned server process.
type child struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	done     chan struct{}
	wireAddr string
	httpAddr string
}

// spawn starts this binary in a role and waits for its READY line.
func spawn(role string, args ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{role}, args...)...)
	cmd.Stderr = os.Stderr
	// A child must not outlive a driver that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	ready := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "READY" {
				ready <- f[1:]
				break
			}
		}
		close(ready)
		io.Copy(io.Discard, stdout) //nolint:errcheck — drain until exit
		cmd.Wait()                  //nolint:errcheck — exit status is not a result
		close(c.done)
	}()
	select {
	case f, ok := <-ready:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("%s exited before READY", role)
		}
		c.wireAddr, c.httpAddr = f[0], f[1]
		return c, nil
	case <-time.After(120 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s: timed out waiting for READY", role)
	}
}

// stop asks the child to exit by closing its stdin, kills it if it has not
// exited within five seconds, and returns once it has.
func (c *child) stop() {
	c.stdin.Close()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck — it may have just exited
		<-c.done
	}
}

// pid returns the child's process id.
func (c *child) pid() int { return c.cmd.Process.Pid }

// fleet is one backend process plus one cache process.
type fleet struct {
	backend, cache *child
	dir            string
}

// startFleet boots a backend over a fresh data directory under root, then a
// cache against it.
func startFleet(root string, cfg tpcw.Config) (*fleet, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.backend, err = spawn(roleBackend, "-dir", filepath.Join(dir, "wal"),
		"-items", strconv.Itoa(cfg.Items), "-customers", strconv.Itoa(cfg.Customers))
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck — scratch
		return nil, err
	}
	f.cache, err = spawn(roleCache, "-backend", f.backend.wireAddr)
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts both processes down and removes the data directory.
func (f *fleet) stop() {
	if f.cache != nil {
		f.cache.stop()
	}
	if f.backend != nil {
		f.backend.stop()
	}
	os.RemoveAll(f.dir) //nolint:errcheck — scratch
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns a process's user+system CPU time from procfs.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fetchMetrics reads a server's metrics registry from /metrics.json.
func fetchMetrics(httpAddr string) (metrics.Export, error) {
	var e metrics.Export
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + httpAddr + "/metrics.json")
	if err != nil {
		return e, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("metrics.json: %s", resp.Status)
	}
	return e, json.NewDecoder(resp.Body).Decode(&e)
}
