package main

import (
	"fmt"
	"strings"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/tpcw"
)

// layerTimes are the layer replay's per-statement timings, in microseconds.
type layerTimes struct {
	stmt     []float64 // cache Exec of a read (engine)
	parse    []float64 // sql.Parse
	optimize []float64 // opt.Optimize of every SELECT the statement runs
	run      []float64 // Database.RunPlan of those SELECTs
	overhead []float64 // Exec minus parse, cached-plan lookup and run
	commit   []float64 // backend Exec of a write (durable WAL)
	step     []float64 // SyncReplication after the write
	errors   int
}

// replayBudget bounds the layer replay's wall time.
const replayBudget = 5 * time.Second

// replay runs the recorded statement stream, in order, against an
// in-process backend and cache set up like the deployed pair (TPC-W load,
// the paper's cache configuration, the probe view) and times the public
// calls into each layer. Reads run on the cache; writes run on the backend,
// each followed by one synchronous replication step to the cache.
func replay(stream []stmt, cfg tpcw.Config, dir string) (*layerTimes, error) {
	b, err := newDurableBackend(dir, cfg)
	if err != nil {
		return nil, err
	}
	defer b.DB.CloseStore() //nolint:errcheck — data is scratch
	c, err := core.NewCache("cache", b, nil)
	if err != nil {
		return nil, err
	}
	if err := tpcw.SetupCache(c); err != nil {
		return nil, err
	}
	if err := c.CreateCachedView(probeViewDDL); err != nil {
		return nil, err
	}
	env := &opt.Env{Cat: c.DB.Catalog(), IsCache: true, Opts: c.DB.Options()}

	lt := &layerTimes{}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	deadline := time.Now().Add(replayBudget)
	for _, s := range stream {
		if time.Now().After(deadline) {
			break
		}
		if s.write {
			t0 := time.Now()
			_, err := b.Exec(s.text, s.params)
			d := time.Since(t0)
			if err != nil {
				lt.errors++
				continue
			}
			t1 := time.Now()
			if err := b.SyncReplication(); err != nil {
				return nil, fmt.Errorf("replication step: %w", err)
			}
			lt.commit = append(lt.commit, us(d))
			lt.step = append(lt.step, us(time.Since(t1)))
			continue
		}
		t0 := time.Now()
		_, err := c.DB.Exec(s.text, s.params)
		execD := time.Since(t0)
		if err != nil {
			lt.errors++
			continue
		}
		t0 = time.Now()
		parsed, err := sql.Parse(s.text)
		parseD := time.Since(t0)
		if err != nil {
			lt.errors++
			continue
		}
		sels, params := selectsOf(c.DB, parsed, s.params)
		var optD, planD, runD time.Duration
		ok := true
		for _, sel := range sels {
			t0 = time.Now()
			_, err := opt.Optimize(sel, env)
			optD += time.Since(t0)
			t0 = time.Now()
			plan, perr := c.DB.Plan(sel)
			planD += time.Since(t0)
			if err != nil || perr != nil {
				ok = false
				break
			}
			t0 = time.Now()
			_, err = c.DB.RunPlan(plan, params)
			runD += time.Since(t0)
			if err != nil {
				ok = false
				break
			}
		}
		if !ok {
			lt.errors++
			continue
		}
		lt.stmt = append(lt.stmt, us(execD))
		lt.parse = append(lt.parse, us(parseD))
		lt.optimize = append(lt.optimize, us(optD))
		lt.run = append(lt.run, us(runD))
		lt.overhead = append(lt.overhead, us(execD-parseD-planD-runD))
	}
	return lt, nil
}

// selectsOf returns the SELECTs a read statement executes on the cache —
// the statement itself, or the body of a cache-local procedure — with the
// parameters they run under.
func selectsOf(db *engine.Database, st sql.Statement, params exec.Params) ([]*sql.SelectStmt, exec.Params) {
	switch x := st.(type) {
	case *sql.SelectStmt:
		return []*sql.SelectStmt{x}, params
	case *sql.ExecStmt:
		proc := db.Catalog().Procedure(x.Proc)
		if proc == nil {
			return nil, nil
		}
		bound := exec.Params{}
		for _, a := range x.Args {
			lit, ok := a.Expr.(*sql.Literal)
			if !ok {
				continue
			}
			for _, p := range proc.Params {
				if strings.EqualFold(p.Name, a.Name) {
					if v, err := lit.Val.Cast(p.Type); err == nil {
						bound[p.Name] = v
					}
				}
			}
		}
		var sels []*sql.SelectStmt
		for _, s := range proc.Body {
			if sel, ok := s.(*sql.SelectStmt); ok {
				sels = append(sels, sel)
			}
		}
		return sels, bound
	}
	return nil, nil
}
