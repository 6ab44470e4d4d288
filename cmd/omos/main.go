// Command omos is the client CLI for an omosd daemon.  It mirrors the
// paper's user-facing surface: defining meta-objects, populating the
// namespace, and invoking programs whose images the server constructs
// and caches.
//
// Usage:
//
//	omos [-server addr] [-timeout D] [-connect-timeout D] [-retries N] <command> [args]
//
// -timeout bounds each call (a deadline overrun is reported, never a
// hang); -retries sizes each retry budget: a call that failed before
// it was sent, or was shed by an overloaded daemon, retries whatever
// the command; a transport failure mid-call retries only idempotent
// operations, redialing as needed, with jittered exponential backoff.
// run/run-boot are never retried once sent.
//
// Commands:
//
//	ping
//	ls [prefix]                 list the server namespace
//	define <path> <file>        define a program meta-object from a blueprint file
//	define-lib <path> <file>    define a library meta-object
//	asm <path> <file.s>         assemble and store an object
//	cc <dir> <unit> <file.c>    compile mini-C and store the objects
//	put <path> <file.rof>       store an encoded ROF object
//	rm <path>                   remove a namespace entry
//	run <path> [args...]        run a program (integrated exec)
//	run-boot <path> [args...]   run via the bootstrap loader
//	instantiate <path>...       build (or warm-hit) images for several
//	                            meta-objects in one batched request;
//	                            per-item results, exit 1 on any failure
//	dis <path>                  disassemble a stored object
//	explain <symbol>            binding provenance: which definer each
//	                            cached image binds the symbol to, how
//	                            it was resolved, at which generation
//	stats                       every counter: server, memory, transport
//	health                      daemon liveness, state and verdicts
//	                            (exits 1 when draining, degraded, or a
//	                            live-upgrade rollback is in progress)
//	graph                       build-graph report: run counts, then
//	                            active and recent instantiation runs,
//	                            each node's outcome and duration (the
//	                            node counters are stats' graph: line)
//	upgrade [--canary=N%] [--prog] <path> <file> ...
//	                            open a live-upgrade epoch (N% canary)
//	                            and stage new definitions; running
//	                            processes keep v1, the canary cohort
//	                            builds v2
//	upgrade --commit            apply the staged definitions atomically
//	upgrade --rollback [reason] abort the epoch, restoring v1 bindings
//	upgrade --status            report the upgrade engine's state
//
// -allow-rebind makes define/define-lib/rm explicit about re-binding:
// without it the daemon refuses any mutation that would silently
// re-bind a live program's symbol to a different definer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"omos/internal/ipc"
)

func main() {
	server := flag.String("server", "127.0.0.1:7070", "omosd address")
	timeout := flag.Duration("timeout", ipc.DefaultOptions.CallTimeout, "per-call deadline (0: none)")
	connectTimeout := flag.Duration("connect-timeout", ipc.DefaultOptions.ConnectTimeout, "dial deadline (0: none)")
	retries := flag.Int("retries", ipc.DefaultOptions.Retries, "retry attempts for idempotent operations")
	backoff := flag.Duration("backoff", ipc.DefaultOptions.Backoff, "initial retry backoff (doubles per attempt)")
	allowRebind := flag.Bool("allow-rebind", false, "let define/define-lib/rm re-bind symbols of live programs")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c, err := ipc.DialWith(*server, ipc.Options{
		ConnectTimeout: *connectTimeout,
		CallTimeout:    *timeout,
		Retries:        *retries,
		Backoff:        *backoff,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ping":
		resp := call(c, &ipc.Request{Op: ipc.OpPing})
		fmt.Println(resp.Text)
	case "ls":
		prefix := "/"
		if len(rest) > 0 {
			prefix = rest[0]
		}
		resp := call(c, &ipc.Request{Op: ipc.OpList, Path: prefix})
		for _, p := range resp.Paths {
			fmt.Println(p)
		}
	case "define", "define-lib":
		if len(rest) != 2 {
			usage()
		}
		text := readFile(rest[1])
		op := ipc.OpDefine
		if cmd == "define-lib" {
			op = ipc.OpDefineLib
		}
		call(c, &ipc.Request{Op: op, Path: rest[0], Text: text, AllowRebind: *allowRebind})
	case "asm":
		if len(rest) != 2 {
			usage()
		}
		call(c, &ipc.Request{Op: ipc.OpAssemble, Path: rest[0], Text: readFile(rest[1])})
	case "cc":
		if len(rest) != 3 {
			usage()
		}
		resp := call(c, &ipc.Request{Op: ipc.OpCompile, Path: rest[0], Unit: rest[1], Text: readFile(rest[2])})
		for _, p := range resp.Paths {
			fmt.Println(p)
		}
	case "put":
		if len(rest) != 2 {
			usage()
		}
		blob, err := os.ReadFile(rest[1])
		if err != nil {
			fatal(err)
		}
		call(c, &ipc.Request{Op: ipc.OpPutObject, Path: rest[0], Blob: blob})
	case "rm":
		if len(rest) != 1 {
			usage()
		}
		call(c, &ipc.Request{Op: ipc.OpRemove, Path: rest[0], AllowRebind: *allowRebind})
	case "run", "run-boot":
		if len(rest) < 1 {
			usage()
		}
		op := ipc.OpRun
		if cmd == "run-boot" {
			op = ipc.OpRunBoot
		}
		resp := call(c, &ipc.Request{Op: op, Path: rest[0], Args: rest[1:]})
		fmt.Print(resp.Output)
		fmt.Fprintf(os.Stderr, "exit=%d user=%d sys=%d server=%d wait=%d cycles\n",
			resp.ExitCode, resp.User, resp.Sys, resp.Server, resp.Wait)
		os.Exit(int(resp.ExitCode))
	case "instantiate":
		if len(rest) < 1 {
			usage()
		}
		res, err := c.InstantiateBatch(rest)
		if err != nil {
			fatal(err)
		}
		failed := 0
		for _, r := range res {
			if r.Err != nil {
				failed++
				fmt.Printf("%s: error: %v\n", r.Path, r.Err)
			} else {
				fmt.Printf("%s: ok\n", r.Path)
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
	case "dis":
		if len(rest) != 1 {
			usage()
		}
		resp := call(c, &ipc.Request{Op: ipc.OpDisasm, Path: rest[0]})
		fmt.Print(resp.Text)
	case "explain":
		if len(rest) != 1 {
			usage()
		}
		resp := call(c, &ipc.Request{Op: ipc.OpExplain, Path: rest[0]})
		fmt.Print(resp.Text)
	case "stats":
		resp := call(c, &ipc.Request{Op: ipc.OpStats})
		fmt.Print(resp.Text)
	case "graph":
		resp := call(c, &ipc.Request{Op: ipc.OpGraph})
		fmt.Print(resp.Text)
	case "upgrade":
		if len(rest) == 0 {
			usage()
		}
		switch rest[0] {
		case "--commit", "commit":
			call(c, &ipc.Request{Op: ipc.OpUpgrade, Unit: "commit"})
			fmt.Println("upgrade committed")
		case "--rollback", "rollback":
			call(c, &ipc.Request{Op: ipc.OpRollback, Text: strings.Join(rest[1:], " ")})
			fmt.Println("upgrade rolled back")
		case "--status", "status":
			resp := call(c, &ipc.Request{Op: ipc.OpUpgradeStatus})
			fmt.Println(resp.Text)
		default:
			pct := ""
			isLib := true
			i := 0
			for ; i < len(rest) && strings.HasPrefix(rest[i], "--"); i++ {
				switch {
				case strings.HasPrefix(rest[i], "--canary="):
					pct = strings.TrimSuffix(strings.TrimPrefix(rest[i], "--canary="), "%")
				case rest[i] == "--prog":
					isLib = false
				default:
					usage()
				}
			}
			pairs := rest[i:]
			if len(pairs) == 0 || len(pairs)%2 != 0 {
				usage()
			}
			resp := call(c, &ipc.Request{Op: ipc.OpUpgrade, Unit: "start", Text: pct})
			fmt.Printf("epoch %s opened\n", resp.Text)
			kind := "prog"
			if isLib {
				kind = "lib"
			}
			for j := 0; j < len(pairs); j += 2 {
				call(c, &ipc.Request{Op: ipc.OpUpgrade, Unit: "stage",
					Path: pairs[j], Text: readFile(pairs[j+1]), Args: []string{kind}})
				fmt.Printf("staged %s\n", pairs[j])
			}
		}
	case "health":
		resp := call(c, &ipc.Request{Op: ipc.OpHealth})
		if resp.Health == nil {
			fatal(fmt.Errorf("daemon did not report health"))
		}
		fmt.Print(resp.Health.Format())
		if resp.Health.Unhealthy() {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func call(c *ipc.Client, req *ipc.Request) *ipc.Response {
	resp, err := c.Call(req)
	if err != nil {
		fatal(err)
	}
	return resp
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "omos:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: omos [-server addr] [-timeout D] [-retries N] [-allow-rebind] <command> [args]
commands: ping | ls [prefix] | define <path> <file> | define-lib <path> <file>
          asm <path> <file.s> | cc <dir> <unit> <file.c> | put <path> <file.rof>
          rm <path> | run <path> [args...] | run-boot <path> [args...]
          instantiate <path>... | dis <path> | explain <symbol>
          stats | health | graph
          upgrade [--canary=N%] [--prog] <path> <file> ...
          upgrade --commit | --rollback [reason] | --status`)
	os.Exit(2)
}
