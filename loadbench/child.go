package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"saccs"
	"saccs/internal/server"
	"saccs/internal/yelp"
)

// paperWorld converts the paper-scale Yelp slice (280 entities, ~7 000
// reviews) into facade entities.
func paperWorld() []saccs.Entity {
	w := yelp.Generate(yelp.DefaultConfig())
	out := make([]saccs.Entity, len(w.Entities))
	for i, e := range w.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		out[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	return out
}

// entityIDs lists the paper world's entities, the targets of appends.
func entityIDs() []string {
	w := yelp.Generate(yelp.DefaultConfig())
	ids := make([]string, len(w.Entities))
	for i, e := range w.Entities {
		ids[i] = e.ID
	}
	return ids
}

// serveMain is the server child: saccs.New(DefaultConfig()) indexed over the
// paper world and served through internal/server on loopback. It prints
// "addr <host:port>" once the listener accepts connections, then reads
// commands from stdin:
//
//	trace <workload> <seed> <out.json>   replay the workload in-process with spans
//
// End of stdin drains the server gracefully and exits.
func serveMain(walDir string, traced bool) error {
	ents := paperWorld()
	var pipe *handPipeline
	var pipeErr error
	var wg sync.WaitGroup
	if traced {
		// The traced run's hand-assembled pipeline trains beside the served
		// client; only a traced run pays for it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			pipe, pipeErr = buildHandPipeline(ents, walDir+"-hand")
		}()
	}
	cfg := saccs.DefaultConfig()
	cfg.WALDir = walDir
	client, err := saccs.New(cfg)
	if err != nil {
		return err
	}
	if err := client.IndexEntities(ents, client.CanonicalTags()); err != nil {
		return err
	}
	wg.Wait()
	if pipeErr != nil {
		return pipeErr
	}
	srv := server.New(client, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("addr %s\n", srv.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		f := strings.Fields(in.Text())
		switch {
		case len(f) == 4 && f[0] == "trace" && pipe != nil:
			var seed int64
			if _, err := fmt.Sscan(f[2], &seed); err != nil {
				return fmt.Errorf("trace seed: %w", err)
			}
			if err := runTraced(client, srv, pipe, f[1], seed, f[3]); err != nil {
				return fmt.Errorf("traced run: %w", err)
			}
			fmt.Println("traced")
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if pipe != nil {
		pipe.close()
	}
	return srv.Shutdown(ctx)
}

// child is the server process, seen from the load generator.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	lines  chan string   // the child's stdout, line by line; closed at EOF
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited is closed
}

func startChild(self, walDir string, traced bool) (*child, error) {
	cmd := exec.Command(self, "-serve", "-wal-dir", walDir, "-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	// The child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	// An os.Pipe rather than StdoutPipe, so waiting for the process never
	// races the reader.
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 16), exited: make(chan struct{})}
	go func() {
		defer close(c.lines)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
	}()
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// expect waits for the next stdout line, which must start with prefix, and
// returns the rest of it.
func (c *child) expect(prefix string, timeout time.Duration) (string, error) {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return "", fmt.Errorf("server exited before %q", prefix)
		}
		if !strings.HasPrefix(line, prefix) {
			return "", fmt.Errorf("server said %q, want %q", line, prefix)
		}
		return strings.TrimPrefix(line, prefix), nil
	case <-time.After(timeout):
		return "", fmt.Errorf("server silent for %v waiting for %q", timeout, prefix)
	}
}

func (c *child) send(cmd string) error {
	_, err := io.WriteString(c.stdin, cmd+"\n")
	return err
}

// stop closes the child's stdin, which drains the server, and waits for it
// to exit.
func (c *child) stop() error {
	c.stdin.Close()
	select {
	case <-c.exited:
		return c.err
	case <-time.After(20 * time.Second):
		c.kill()
		return fmt.Errorf("server did not drain within 20s")
	}
}

// kill ends the child unless it has already exited, and waits for it.
func (c *child) kill() {
	select {
	case <-c.exited:
		return
	default:
	}
	_ = c.cmd.Process.Kill() // it may exit on its own meanwhile; exited reports the outcome
	<-c.exited
}
