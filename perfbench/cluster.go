package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running ltreed process.
type proc struct {
	name string
	role []string // role flags; start adds fresh addresses
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	ship string // replication address (leader only)
	log  string
	done chan struct{}
}

// cluster owns every ltreed process the benchmark starts; stop kills
// and reaps them all.
type cluster struct {
	bin   string // ltreed binary
	dir   string // per-run working directory
	procs []*proc
}

// freePorts returns n distinct loopback ports that were free a moment
// ago; all n listeners are held open together so no two coincide.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// start launches ltreed with the given role flags plus fresh loopback
// ports, and waits until /healthz answers. A port is only known free
// until it is closed, so a start that loses its port to another socket
// is retried on new ports, up to three times.
func (c *cluster) start(name string, roleArgs ...string) (*proc, error) {
	for attempt := 1; ; attempt++ {
		p, err := c.launch(name, roleArgs)
		if err == nil || attempt == 3 || !strings.Contains(tail(p.log), "address already in use") {
			return p, err
		}
	}
}

func (c *cluster) launch(name string, roleArgs []string) (*proc, error) {
	ports, err := freePorts(2)
	if err != nil {
		return &proc{}, err
	}
	p := &proc{name: name, role: roleArgs, base: fmt.Sprintf("http://127.0.0.1:%d", ports[0]), done: make(chan struct{})}
	args := append([]string{}, roleArgs...)
	args = append(args, "-http", fmt.Sprintf("127.0.0.1:%d", ports[0]))
	if roleArgs[0] == "-wal" {
		p.ship = fmt.Sprintf("127.0.0.1:%d", ports[1])
		args = append(args, "-ship", p.ship)
	}
	p.log = filepath.Join(c.dir, fmt.Sprintf("%s-%d.log", name, len(c.procs)))
	lf, err := os.Create(p.log)
	if err != nil {
		return p, err
	}
	defer lf.Close()
	p.cmd = exec.Command(c.bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = lf, lf
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// If the benchmark dies, its ltreed processes die with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return p, err
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	c.procs = append(c.procs, p)
	if err := p.waitHealthy(60 * time.Second); err != nil {
		p.kill()
		return p, err
	}
	return p, nil
}

var healthClient = &http.Client{Timeout: 2 * time.Second}

func (p *proc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %s", p.name, tail(p.log))
		default:
		}
		resp, err := healthClient.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %s", p.name, limit, tail(p.log))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, from /proc.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

func (c *cluster) stop() {
	for _, p := range c.procs {
		p.kill()
	}
	c.procs = nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}
