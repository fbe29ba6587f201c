package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what one harness process works in: the checkout, the build
// directory inside it, and the server binary built from it.
type env struct {
	root     string // checkout root (holds cmd/mobserve)
	buildDir string // <root>/.bench_build: binaries, temp stores, traces
	mobserve string // the server binary under test
	nproc    int
}

// newEnv locates the checkout and builds ./cmd/mobserve from it. A
// directory without the server's sources is an error: the benchmark
// measures this checkout's program and has nothing else to run.
func newEnv() (*env, error) {
	root := ""
	for _, cand := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(cand, "cmd", "mobserve")); err == nil && st.IsDir() {
			root, _ = filepath.Abs(cand)
			break
		}
	}
	if root == "" {
		return nil, errors.New("no cmd/mobserve here or one level up: run from a checkout of the repository")
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build"), nproc: runtime.NumCPU()}
	e.mobserve = filepath.Join(e.buildDir, "bin", "mobserve")
	if err := os.MkdirAll(filepath.Join(e.buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", e.mobserve, "./cmd/mobserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/mobserve: %v\n%s", err, out)
	}
	return e, nil
}

// tempDir makes a fresh directory for stores; removeTemp deletes it.
func (e *env) tempDir(name string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.buildDir, "tmp"), name+"-")
	if err == nil {
		children.Lock()
		children.dirs[dir] = struct{}{}
		children.Unlock()
	}
	return dir, err
}

func removeTemp(dir string) {
	_ = os.RemoveAll(dir) // a leftover directory is reported by git status, not by a run
	children.Lock()
	delete(children.dirs, dir)
	children.Unlock()
}

// children tracks every live server process and temporary directory so
// that any exit path — return, failure, signal — can kill and reap the
// processes and then remove the directories.
var children = struct {
	sync.Mutex
	procs map[*proc]struct{}
	dirs  map[string]struct{}
}{procs: map[*proc]struct{}{}, dirs: map[string]struct{}{}}

// killAll SIGKILLs and reaps every child still running, then removes
// every temporary directory still there.
func killAll() {
	children.Lock()
	ps := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		ps = append(ps, p)
	}
	ds := make([]string, 0, len(children.dirs))
	for d := range children.dirs {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
	for _, d := range ds {
		removeTemp(d)
	}
}

// proc is one mobserve process: its arguments (kept so a crash test can
// boot it again on the same address and directories) and its stderr.
type proc struct {
	bin    string
	args   []string
	addr   string
	stderr *lockedBuffer
	cmd    *exec.Cmd
	done   chan struct{} // closed once Wait returned
}

func (p *proc) url() string { return "http://" + p.addr }

// lockedBuffer is a bytes.Buffer the child's stderr copier can write
// while a failure report reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port by listening on :0 and closing.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc launches mobserve with args plus a fresh -addr, in its own
// process group. It does not wait for readiness.
func startProc(bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{bin: bin, args: args, addr: addr}
	return p, p.start()
}

func (p *proc) start() error {
	p.stderr = &lockedBuffer{}
	p.cmd = exec.Command(p.bin, append(append([]string(nil), p.args...), "-addr", p.addr)...)
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return err
	}
	p.done = make(chan struct{})
	children.Lock()
	children.procs[p] = struct{}{}
	children.Unlock()
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(done)
	}(p.cmd, p.done)
	return nil
}

// kill SIGKILLs the process group and waits until the process has gone.
// SIGKILL rather than SIGTERM on purpose: SIGTERM makes mobserve flush a
// final snapshot, which a crash test must not get and a teardown would
// have to wait for before removing the directories.
func (p *proc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-p.done
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
}

// waitReady polls /healthz until it answers 200, the process dies, or
// the timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("mobserve %v exited during boot:\n%s", p.args, p.stderr.String())
		default:
		}
		resp, err := hc.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mobserve %v not ready after %v:\n%s", p.args, timeout, p.stderr.String())
}

// rssMB reads the process's resident set from /proc.
func (p *proc) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// topology is the set of server processes one workload runs against:
// a single -live node, or a coordinator over two shard nodes.
type topology struct {
	dir    string
	public *proc   // the node clients talk to
	procs  []*proc // every process, shards before the coordinator
	// stores are the tweetdb directories whose bytes count as "on disk".
	stores []string
	// snapshotters answer POST /v1/snapshot (each owns a -snapshot-dir);
	// a topology without any restarts by rescanning its stores.
	snapshotters []*proc
}

// bootSingle starts `mobserve -live -bucket 1h -snapshot-dir` on empty
// directories.
func (e *env) bootSingle() (*topology, error) {
	dir, err := e.tempDir("single")
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir, stores: []string{filepath.Join(dir, "db")}}
	p, err := startProc(e.mobserve, "-live", "-bucket", "1h",
		"-db", filepath.Join(dir, "db"), "-snapshot-dir", filepath.Join(dir, "snap"))
	if err != nil {
		t.close()
		return nil, err
	}
	t.public, t.procs, t.snapshotters = p, []*proc{p}, []*proc{p}
	return t, t.ready()
}

// bootCluster starts two -cluster-shard nodes and a coordinator over
// them with -replication 2 and a durable WAL spool. The shards keep no
// snapshot directory: a shard holds one ring per placement slot, so its
// first snapshot commit writes sixteen times a single node's bucket
// files (about 20 s here), more than a run can spend; a killed shard
// recovers by backfilling from its store.
func (e *env) bootCluster() (*topology, error) {
	dir, err := e.tempDir("cluster")
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		db := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		p, err := startProc(e.mobserve, "-cluster-shard", "-bucket", "1h", "-db", db)
		if err != nil {
			t.close()
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.stores = append(t.stores, db)
		urls = append(urls, p.url())
	}
	c, err := startProc(e.mobserve, "-cluster-coordinator", strings.Join(urls, ","),
		"-replication", "2", "-wal-dir", filepath.Join(dir, "wal"))
	if err != nil {
		t.close()
		return nil, err
	}
	t.procs = append(t.procs, c)
	t.public = c
	return t, t.ready()
}

// ready waits for every process; on failure it tears the topology down.
func (t *topology) ready() error {
	for _, p := range t.procs {
		if err := p.waitReady(30 * time.Second); err != nil {
			t.close()
			return err
		}
	}
	return nil
}

// close kills every process, waits for each, then removes the stores.
func (t *topology) close() {
	for _, p := range t.procs {
		p.kill()
	}
	removeTemp(t.dir)
}

// stderrAll returns what the servers logged, for a failure report.
func (t *topology) stderrAll() string {
	var sb strings.Builder
	for _, p := range t.procs {
		fmt.Fprintf(&sb, "--- mobserve %s\n%s", strings.Join(p.args, " "), p.stderr.String())
	}
	return sb.String()
}

func (t *topology) rssMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		v, err := p.rssMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (t *topology) storeBytes() (int64, error) {
	var sum int64
	for _, d := range t.stores {
		n, err := dirBytes(d)
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// crashRestart SIGKILLs every process and boots them again on the same
// addresses and directories, returning once the public node's /healthz
// answers 200.
func (t *topology) crashRestart() error {
	for _, p := range t.procs {
		p.kill()
	}
	for _, p := range t.procs {
		if err := p.start(); err != nil {
			return err
		}
	}
	return t.ready()
}

// machine describes where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func (e *env) machine() machine {
	m := machine{NProc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func (m machine) String() string {
	b, _ := json.Marshal(m) // a struct of strings and ints always marshals
	return string(b)
}
