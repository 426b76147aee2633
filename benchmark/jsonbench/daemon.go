package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where one jsonbench process works: the checkout it measures
// and a scratch directory inside it. Nothing is read or written
// outside root.
type env struct {
	root      string // the checkout: holds BENCHMARK.json, go.mod, cmd/, benchmark/
	work      string // scratch, removed on exit
	out       string // where the traced replay writes <workload>.spans.jsonl
	daemonBin string
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above: run from the checkout")
		}
		dir = parent
	}
}

// newEnv builds ./cmd/jsonstored from the checkout's source into the
// scratch area and returns the environment.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, out: filepath.Join(root, "benchmark", "out"), daemonBin: filepath.Join(build, "bin", "jsonstored")}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(build, "work-"); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", e.daemonBin, "./cmd/jsonstored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("build ./cmd/jsonstored: %v\n%s", err, out)
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// dataDir returns a fresh, empty data directory.
func (e *env) dataDir() (string, error) { return os.MkdirTemp(e.work, "data-") }

// daemon is one running jsonstored process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dir     string
	log     *os.File
	exited  chan struct{} // closed once the process has been waited for
	recover time.Duration // process spawn to first 200 on GET /stats
	control *http.Client  // the benchmark's own calls (stats, load), not the measured clients
}

// Daemon flags are defaults except the four fixed conditions: a
// loopback -addr, the -data-dir, -fsync interval (100 ms group sync;
// "always" would measure the sandbox disk) and -snapshot-every sized to
// the corpus so that each shard compacts about three times during the
// load and most documents are served from mmap'd segments.
func (e *env) spawn(dir string, snapshotEvery int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(e.work, "jsonstored.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base: "http://" + addr, dir: dir, log: logf,
		control: &http.Client{Timeout: 60 * time.Second},
		cmd: exec.Command(e.daemonBin, "-addr", addr, "-data-dir", dir,
			"-fsync", "interval", "-snapshot-every", strconv.Itoa(snapshotEvery)),
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d.exited = make(chan struct{})
	go func() { d.cmd.Wait(); close(d.exited) }()
	for {
		resp, err := d.control.Get(d.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.recover = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("jsonstored exited during start-up; see %s", logf.Name())
		default:
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, errors.New("jsonstored did not answer GET /stats within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (the graceful drain: WAL flushed and fsynced) and
// waits for the process to end.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.control.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("jsonstored did not exit within 30s of SIGTERM")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("jsonstored exited with code %d", code)
	}
	return nil
}

// kill ends the process at once and waits for it; for error paths. It
// is harmless after stop.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	Store struct {
		Docs       int `json:"docs"`
		Durability struct {
			WALSegmentRecords uint64 `json:"wal_segment_records"`
			Compactions       uint64 `json:"compactions"`
			SegmentDocs       int    `json:"segment_docs"`
			MemtableDocs      int    `json:"memtable_docs"`
		} `json:"durability"`
	} `json:"store"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.control.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// quiesceWindow is how long the compaction counters must hold still:
// the daemon looks for shards to compact every 500 ms, so a shorter
// silence proves nothing.
const quiesceWindow = 600 * time.Millisecond

// quiesce waits until background compaction has caught up with the
// writes sent so far: the compaction and WAL-record counters have not
// moved for quiesceWindow.
func (d *daemon) quiesce() error {
	var last daemonStats
	since := time.Now()
	for deadline := since.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		st, err := d.stats()
		if err != nil {
			return err
		}
		du, lu := st.Store.Durability, last.Store.Durability
		if du.Compactions != lu.Compactions || du.WALSegmentRecords != lu.WALSegmentRecords {
			last, since = st, time.Now()
		} else if time.Since(since) >= quiesceWindow {
			return nil
		}
	}
	return errors.New("compactions did not quiesce within 60s")
}

// bulk posts NDJSON lines and returns the ids the daemon assigned.
func (d *daemon) bulk(ndjson []byte) ([]string, error) {
	resp, err := d.control.Post(d.base+"/bulk", "application/x-ndjson", bytes.NewReader(ndjson))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out bulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || len(out.Errors) > 0 {
		return nil, fmt.Errorf("POST /bulk: %s, %d line errors", resp.Status, len(out.Errors))
	}
	return out.IDs, nil
}

type bulkResponse struct {
	IDs    []string          `json:"ids"`
	Errors []json.RawMessage `json:"errors"`
}

// rssPeakMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
