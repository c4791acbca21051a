package bench

import (
	"fmt"
	"sort"
	"time"

	"promips/internal/vec"
	"promips/mips"
)

// PageCostMs is the simulated per-page disk read cost used by the Total
// Time experiment (Fig 9). The paper measures wall time on a spinning disk;
// we model it as CPU time + pages × PageCostMs so that the metric remains
// deterministic (see DESIGN.md, "The perf rail").
const PageCostMs = 0.1

// pagesNote qualifies every table that reports ProMIPS page accesses. The
// paper's index is a disk-resident B+-tree whose node reads count; here the
// ring directory is held in memory, so a ProMIPS query counts only the
// projected-data and store pages it reads.
const pagesNote = "pages exclude the in-memory ring directory"

// Ks returns the paper's k sweep: 10, 20, …, 100.
func Ks() []int {
	ks := make([]int, 10)
	for i := range ks {
		ks[i] = 10 * (i + 1)
	}
	return ks
}

// Point aggregates one method's behaviour at one k over the whole query
// workload (averages).
type Point struct {
	Ratio   float64 // overall ratio (Fig 5)
	Recall  float64 // recall (Fig 6)
	Pages   float64 // page accesses (Fig 7)
	CPUms   float64 // CPU time per query in ms (Fig 8)
	TotalMs float64 // CPU + simulated disk time (Fig 9)
}

// Measure runs every query at the given k against one method.
func (e *Env) Measure(m mips.Method, k int) (Point, error) {
	gt := e.GroundTruth(k)
	var p Point
	for qi, q := range e.Queries {
		start := time.Now()
		res, qs, err := m.Search(q, k)
		elapsed := time.Since(start)
		if err != nil {
			return Point{}, fmt.Errorf("%s k=%d query %d: %w", m.Name(), k, qi, err)
		}
		// Fairness across methods: re-derive exact inner products for the
		// returned ids (the PQ baseline reports ADC estimates) and order
		// best-first before scoring.
		exactRes := make([]mips.Result, len(res))
		for i, r := range res {
			exactRes[i] = mips.Result{ID: r.ID, IP: vec.Dot(e.Data[r.ID], q)}
		}
		sort.Slice(exactRes, func(a, b int) bool { return exactRes[a].IP > exactRes[b].IP })

		p.Ratio += gt.OverallRatio(qi, exactRes)
		p.Recall += gt.Recall(qi, exactRes)
		p.Pages += float64(qs.PageAccesses)
		p.CPUms += float64(elapsed.Microseconds()) / 1000
	}
	nq := float64(len(e.Queries))
	p.Ratio /= nq
	p.Recall /= nq
	p.Pages /= nq
	p.CPUms /= nq
	p.TotalMs = p.CPUms + p.Pages*PageCostMs
	return p, nil
}

// Fig4 reports index size and pre-processing time per method (Fig 4a/4b).
func Fig4(e *Env, builts []Built) Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 4: Index Size and Pre-processing Time — %s (n=%d, d=%d)", e.Cfg.Spec.Name, len(e.Data), e.Cfg.Spec.D),
		Header: []string{"Method", "IndexSize(MB)", "Preprocess(ms)"},
	}
	for _, b := range builts {
		t.AddRow(b.Method.Name(),
			fmt.Sprintf("%.2f", float64(b.IndexBytes)/(1<<20)),
			fmt.Sprintf("%d", b.BuildTime.Milliseconds()))
	}
	return t
}

// Sweep runs every method across the k values and returns the five
// paper figures' tables: overall ratio (Fig 5), recall (Fig 6), page
// access (Fig 7), CPU time (Fig 8) and total time (Fig 9).
func Sweep(e *Env, builts []Built, ks []int) ([5]Table, error) {
	names := make([]string, len(builts))
	for i, b := range builts {
		names[i] = b.Method.Name()
	}
	header := append([]string{"k"}, names...)
	mk := func(fig, metric string) Table {
		return Table{
			Title:  fmt.Sprintf("%s: %s — %s", fig, metric, e.Cfg.Spec.Name),
			Header: append([]string(nil), header...),
		}
	}
	tables := [5]Table{
		mk("Fig 5", "Overall Ratio"),
		mk("Fig 6", "Recall"),
		mk("Fig 7", "Page Access"),
		mk("Fig 8", "CPU Time (ms)"),
		mk("Fig 9", "Total Time (ms)"),
	}
	tables[2].Title += " (ProMIPS " + pagesNote + ")"
	tables[4].Title += " (ProMIPS " + pagesNote + ")"
	for _, k := range ks {
		cells := [5][]string{
			{fmt.Sprint(k)}, {fmt.Sprint(k)}, {fmt.Sprint(k)}, {fmt.Sprint(k)}, {fmt.Sprint(k)},
		}
		for _, b := range builts {
			p, err := e.Measure(b.Method, k)
			if err != nil {
				return tables, err
			}
			cells[0] = append(cells[0], f4(p.Ratio))
			cells[1] = append(cells[1], f4(p.Recall))
			cells[2] = append(cells[2], f1(p.Pages))
			cells[3] = append(cells[3], f3(p.CPUms))
			cells[4] = append(cells[4], f3(p.TotalMs))
		}
		for i := range tables {
			tables[i].AddRow(cells[i]...)
		}
	}
	return tables, nil
}

// Fig10 sweeps the approximation ratio c for ProMIPS (overall ratio and
// page access at a fixed k), rebuilding the index per c as the paper does.
func Fig10(e *Env, cs []float64, k int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Fig 10: Impact of c — %s (k=%d, p=%.1f; %s)", e.Cfg.Spec.Name, k, e.Cfg.P, pagesNote),
		Header: []string{"c", "OverallRatio", "Recall", "PageAccess", "CPUms"},
	}
	for _, c := range cs {
		b, err := e.BuildProMIPS(ProMIPSOptions{C: c})
		if err != nil {
			return t, err
		}
		p, err := e.Measure(b.Method, k)
		b.Method.Close()
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%.1f", c), f4(p.Ratio), f4(p.Recall), f1(p.Pages), f3(p.CPUms))
	}
	return t, nil
}

// Fig11 sweeps the guarantee probability p for ProMIPS.
func Fig11(e *Env, ps []float64, k int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Fig 11: Impact of p — %s (k=%d, c=%.1f; %s)", e.Cfg.Spec.Name, k, e.Cfg.C, pagesNote),
		Header: []string{"p", "OverallRatio", "Recall", "PageAccess", "CPUms"},
	}
	for _, pv := range ps {
		b, err := e.BuildProMIPS(ProMIPSOptions{P: pv})
		if err != nil {
			return t, err
		}
		p, err := e.Measure(b.Method, k)
		b.Method.Close()
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%.1f", pv), f4(p.Ratio), f4(p.Recall), f1(p.Pages), f3(p.CPUms))
	}
	return t, nil
}

// Table2Scaling measures ProMIPS's build time and query cost (CPU ms and
// pages per query, and pages per thousand points) as n grows, holding d
// fixed — the empirical side of the paper's Table II. It reports what the
// index costs, not a confirmation of the table's bounds. With 30 member
// queries on Yahoo on a 2-vCPU VM it measured 16.0 → 31.2 → 73.4 CPU
// ms/query at n = 40 k → 80 k → 160 k: at least linear growth, as a member
// query's candidate collection is Θ(n).
func Table2Scaling(cfgBase Config, ns []int, k int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Table 2: ProMIPS query scaling with n — %s (%s)", cfgBase.Spec.Name, pagesNote),
		Header: []string{"n", "BuildMs", "CPUms/query", "Pages/query", "Pages/n(x1000)"},
	}
	for _, n := range ns {
		cfg := cfgBase
		cfg.N = n
		env, err := NewEnv(cfg)
		if err != nil {
			return t, err
		}
		b, err := env.BuildProMIPS(ProMIPSOptions{})
		if err != nil {
			env.Close()
			return t, err
		}
		p, err := env.Measure(b.Method, k)
		b.Method.Close()
		env.Close()
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(b.BuildTime.Milliseconds()),
			f3(p.CPUms), f1(p.Pages), f3(p.Pages/float64(n)*1000))
	}
	return t, nil
}

// AblationQuickProbe compares Algorithm 3 (Quick-Probe + range search)
// against Algorithm 1 (incremental NN with per-point condition tests) on
// the same index parameters — the design choice §V motivates.
func AblationQuickProbe(e *Env, ks []int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: Quick-Probe (Alg 3) vs incremental (Alg 1) — %s (%s)", e.Cfg.Spec.Name, pagesNote),
		Header: []string{"k", "QP-CPUms", "Inc-CPUms", "QP-Pages", "Inc-Pages", "QP-Ratio", "Inc-Ratio"},
	}
	qp, err := e.BuildProMIPS(ProMIPSOptions{})
	if err != nil {
		return t, err
	}
	defer qp.Method.Close()
	inc, err := e.BuildProMIPSIncremental(ProMIPSOptions{})
	if err != nil {
		return t, err
	}
	defer inc.Method.Close()
	for _, k := range ks {
		a, err := e.Measure(qp.Method, k)
		if err != nil {
			return t, err
		}
		b, err := e.Measure(inc.Method, k)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprint(k), f3(a.CPUms), f3(b.CPUms), f1(a.Pages), f1(b.Pages), f4(a.Ratio), f4(b.Ratio))
	}
	return t, nil
}

// AblationPartition compares the paper's new partition pattern (ring +
// sub-partition spheres) against standard ring-only iDistance (ksp=1: a
// single sub-partition per ring disables the sphere filter).
func AblationPartition(e *Env, ks []int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: new partition pattern vs ring-only iDistance — %s (%s)", e.Cfg.Spec.Name, pagesNote),
		Header: []string{"k", "New-Pages", "RingOnly-Pages", "New-CPUms", "RingOnly-CPUms"},
	}
	sub, err := e.BuildProMIPS(ProMIPSOptions{})
	if err != nil {
		return t, err
	}
	defer sub.Method.Close()
	ring, err := e.BuildProMIPS(ProMIPSOptions{Ksp: 1})
	if err != nil {
		return t, err
	}
	defer ring.Method.Close()
	for _, k := range ks {
		a, err := e.Measure(sub.Method, k)
		if err != nil {
			return t, err
		}
		b, err := e.Measure(ring.Method, k)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprint(k), f1(a.Pages), f1(b.Pages), f3(a.CPUms), f3(b.CPUms))
	}
	return t, nil
}

// AblationProjDim sweeps the projected dimension m around the optimized
// value of §V-B.
func AblationProjDim(e *Env, ms []int, k int) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: projected dimension m — %s (optimized m=%d; %s)", e.Cfg.Spec.Name, e.Cfg.Spec.M, pagesNote),
		Header: []string{"m", "OverallRatio", "PageAccess", "CPUms", "IndexMB"},
	}
	for _, m := range ms {
		b, err := e.BuildProMIPS(ProMIPSOptions{M: m})
		if err != nil {
			return t, err
		}
		p, err := e.Measure(b.Method, k)
		if err != nil {
			b.Method.Close()
			return t, err
		}
		t.AddRow(fmt.Sprint(m), f4(p.Ratio), f1(p.Pages), f3(p.CPUms),
			fmt.Sprintf("%.2f", float64(b.IndexBytes)/(1<<20)))
		b.Method.Close()
	}
	return t, nil
}
