package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes outside bench/out
// lives: the daemon binary, checkpoint directories, nothing else. It is
// inside the checkout and git-ignored.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the module root, so
// `go run ./bench` (cwd = root) and `go test ./bench` (cwd = bench)
// both find ./cmd/fairschedd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "fairschedd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no module root with cmd/fairschedd above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/fairschedd into the build directory and
// returns the binary's path. Build time is excluded from setup_s.
func buildDaemon(root string) (string, error) {
	out := filepath.Join(root, buildDir, "fairschedd")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/fairschedd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/fairschedd: %v\n%s", err, msg)
	}
	return out, nil
}

// cleanup tracks everything that must not outlive the benchmark: live
// child process groups and temporary directories. run() drains it on
// every exit path and the signal handler drains it on SIGINT/SIGTERM.
var cleanup struct {
	sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

func trackDir(dir string) {
	cleanup.Lock()
	defer cleanup.Unlock()
	if cleanup.dirs == nil {
		cleanup.dirs = map[string]struct{}{}
	}
	cleanup.dirs[dir] = struct{}{}
}

func removeDir(dir string) {
	os.RemoveAll(dir)
	cleanup.Lock()
	delete(cleanup.dirs, dir)
	cleanup.Unlock()
}

// cleanupAll kills every live child group and removes every temp dir.
func cleanupAll() {
	cleanup.Lock()
	children := make([]*child, 0, len(cleanup.children))
	for c := range cleanup.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		removeDir(d)
	}
}

// child is one running fairschedd.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been reaped
	once   sync.Once
}

// freeAddr reserves a loopback port by binding and releasing it. The
// window between release and the child's bind is why startChild retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild boots the daemon on a free loopback port in its own
// process group and returns once /v1/healthz answers.
func startChild(bin string, args ...string) (*child, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c := &child{addr: addr}
		c.cmd = exec.Command(bin, append([]string{"-addr", addr, "-no-default-session"}, args...)...)
		c.cmd.Stderr = &c.stderr
		c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		c.done = make(chan struct{})
		go func() {
			c.cmd.Wait()
			close(c.done)
		}()
		cleanup.Lock()
		if cleanup.children == nil {
			cleanup.children = map[*child]struct{}{}
		}
		cleanup.children[c] = struct{}{}
		cleanup.Unlock()
		if err := c.waitHealthy(10 * time.Second); err != nil {
			c.kill()
			last = fmt.Errorf("%w; daemon stderr: %s", err, strings.TrimSpace(c.stderr.String()))
			continue
		}
		return c, nil
	}
	return nil, last
}

func (c *child) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			// A dead child never becomes healthy: stop polling.
			return fmt.Errorf("bench: daemon exited during start-up")
		default:
		}
		conn, err := net.DialTimeout("tcp", c.addr, 200*time.Millisecond)
		if err == nil {
			_, werr := conn.Write([]byte("GET /v1/healthz HTTP/1.1\r\nHost: bench\r\n\r\n"))
			var resp *http.Response
			if werr == nil {
				conn.SetReadDeadline(time.Now().Add(time.Second))
				resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
			}
			conn.Close()
			if werr == nil && err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: daemon on %s not healthy within %v", c.addr, limit)
}

func (c *child) forget() {
	cleanup.Lock()
	delete(cleanup.children, c)
	cleanup.Unlock()
}

// kill is the crash: SIGKILL to the whole process group, then reap.
// Safe to call more than once and from the signal handler.
func (c *child) kill() {
	c.once.Do(func() {
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		<-c.done
		c.forget()
	})
}

// cpuSeconds reads the child's on-CPU time so far (user + system). The
// scheduler's per-thread run time in /proc/<pid>/task/*/schedstat has
// nanosecond resolution, which a sub-second lap needs; kernels built
// without it fall back to the 10 ms clock ticks of /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	pid := c.cmd.Process.Pid
	if tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); err == nil && len(tasks) > 0 {
		var ns float64
		ok := true
		for _, path := range tasks {
			data, err := os.ReadFile(path)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			f := strings.Fields(string(data))
			if len(f) < 1 {
				ok = false
				break
			}
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				ok = false
				break
			}
			ns += v
		}
		if ok && ns > 0 {
			return ns / 1e9, nil
		}
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are
	// positional only after its closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc stat times")
	}
	return (utime + stime) / 100, nil
}

// rssPeakMB reads the child's resident-set high-water mark (VmHWM, the
// same figure wait4 later reports as ru_maxrss).
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}
