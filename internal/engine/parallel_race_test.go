package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/exec"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// TestParallelMixedDMLSoak hammers one database with concurrent writers
// (inserts, updates, deletes in disjoint PK ranges), readers running the
// morsel-parallel analytics mix on a forced 8-slot pool, and a
// migration goroutine cycling the table through layouts. There is no
// differential oracle here — interleaved DML makes results
// unverifiable — the assertions are that no statement errors and that
// the race detector stays quiet (run under -race in CI).
func TestParallelMixedDMLSoak(t *testing.T) {
	db := buildParDB(t, catalog.ColumnStore, nil)
	db.SetPool(exec.NewPool(8))

	rounds := 40
	if testing.Short() {
		rounds = 10
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }
	errCh := make(chan error, 8)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
		stopAll()
	}

	// Writers: each owns a disjoint PK range, so concurrent inserts
	// never collide on the primary key.
	for wkr := 0; wkr < 2; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + wkr)))
			base := int64(parRows + 100_000*(wkr+1))
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				rows := make([][]value.Value, 0, 8)
				for k := int64(0); k < 8; k++ {
					rows = append(rows, parRow(rng, base+n*8+k))
				}
				if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "par", Rows: rows}); err != nil {
					fail(fmt.Errorf("writer %d insert: %w", wkr, err))
					return
				}
				lo := base + rng.Int63n(n*8+1)
				if _, err := db.Exec(&query.Query{Kind: query.Update, Table: "par",
					Pred: &expr.Between{Col: 0, Lo: value.NewBigint(lo), Hi: value.NewBigint(lo + 16)},
					Set:  map[int]value.Value{3: value.NewDouble(float64(rng.Intn(1000)))},
				}); err != nil {
					fail(fmt.Errorf("writer %d update: %w", wkr, err))
					return
				}
				if n%4 == 3 {
					if _, err := db.Exec(&query.Query{Kind: query.Delete, Table: "par",
						Pred: &expr.Between{Col: 0, Lo: value.NewBigint(lo), Hi: value.NewBigint(lo + 4)},
					}); err != nil {
						fail(fmt.Errorf("writer %d delete: %w", wkr, err))
						return
					}
				}
			}
		}(wkr)
	}

	// Migration churn: cycle the layout while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		layouts := parLayouts()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := layouts[i%len(layouts)]
			if err := db.MigrateLayout("par", l.store, l.spec); err != nil {
				fail(fmt.Errorf("migrate to %s: %w", l.name, err))
				return
			}
		}
	}()

	// Readers: the parallel analytics mix, rounds times each.
	queries := parQueries(7)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				if _, err := db.Exec(q); err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
			if r == 0 {
				stopAll() // first reader done ends the soak
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
