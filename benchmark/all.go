package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// A set is the end-to-end results of one run of every workload.
type set struct {
	endToEnd map[string]*result // by workload
	advice   string             // advisor_offline's recommendation label
	host     string             // nproc, GOMAXPROCS and seed the set was taken with
}

// child runs one workload in a process of its own, so that heap, GC
// state and peak RSS do not leak from one workload into the next, and
// returns its result and its comment lines.
func child(cfg config, workload string, trace int, echo io.Writer) (*result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var comments []string
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(echo, l)
		if strings.HasPrefix(l, "#") {
			comments = append(comments, l)
		}
	}
	if runErr != nil {
		return nil, nil, fmt.Errorf("%s -trace %d: %w", workload, trace, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s -trace %d: last line is not a result: %w", workload, trace, err)
	}
	return &res, comments, nil
}

// runAll runs every workload untraced and, if traced is set, traced too,
// echoing the children's output: every metric by name with its unit.
func runAll(cfg config, traced bool, echo io.Writer) (*set, error) {
	s := &set{
		endToEnd: map[string]*result{},
		host:     fmt.Sprintf("nproc %d GOMAXPROCS %d seed %d", runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed),
	}
	traces := []int{0}
	if traced {
		traces = []int{0, 1}
	}
	for _, w := range workloadNames {
		for _, trace := range traces {
			fmt.Fprintf(echo, "== %s, trace %d\n", w, trace)
			res, comments, err := child(cfg, w, trace, echo)
			if err != nil {
				return nil, err
			}
			if trace == 0 {
				s.endToEnd[w] = res
			}
			for _, c := range comments {
				if rest, ok := strings.CutPrefix(c, "# advice: "); ok {
					s.advice = rest
				}
			}
		}
	}
	return s, nil
}

// runAgree takes two sets of untraced runs on this commit and compares
// every end-to-end metric of every workload against the metric's bound,
// and the advisor's recommendation as text.
func runAgree(cfg config) error {
	var sets [2]*set
	for i := range sets {
		fmt.Printf("=== set %d\n", i+1)
		s, err := runAll(cfg, false, io.Discard)
		if err != nil {
			return err
		}
		sets[i] = s
	}
	if sets[0].host != sets[1].host {
		return fmt.Errorf("sets are not comparable: %q against %q", sets[0].host, sets[1].host)
	}
	breaches := 0
	if sets[0].advice != sets[1].advice {
		fmt.Printf("advice differs:\n  %s\n  %s\n", sets[0].advice, sets[1].advice)
		breaches++
	}
	fmt.Printf("%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			a, b := sets[0].endToEnd[w].Metrics[d.Name].Value, sets[1].endToEnd[w].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Higher {
				worse = (a - b) / a
			}
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", w, d.Name, a, b, 100*worse, 100*d.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics moved by more than their bound between two runs of one commit", breaches)
	}
	return nil
}
