package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// diffLayouts enumerates the four layouts the differential wall runs
// against: plain row, plain column, horizontal-only partitioning and
// vertical-only partitioning.
func diffLayouts() []struct {
	name  string
	store catalog.StoreKind
	spec  *catalog.PartitionSpec
} {
	return []struct {
		name  string
		store catalog.StoreKind
		spec  *catalog.PartitionSpec
	}{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{
			Horizontal: &catalog.HorizontalSpec{
				SplitCol: 1, SplitVal: value.NewInt(2),
				HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
			},
		}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{
			Vertical: &catalog.VerticalSpec{RowCols: []int{0, 1, 4}, ColCols: []int{0, 2, 3}},
		}},
	}
}

func acctRow(id int64, bal int64) []value.Value {
	return []value.Value{
		value.NewBigint(id),
		value.NewInt(id % 4),
		value.NewDouble(float64(id)),
		value.NewInt(bal),
		value.NewVarchar(fmt.Sprintf("A%d", id%3)),
	}
}

// commitImage is one committed transfer: the commit timestamp and the
// full row images (id -> new balance) it wrote. Replaying images in
// commit-timestamp order is the serial oracle: under snapshot isolation
// with first-updater-wins, every write a transaction commits was derived
// from the latest committed version of that same row, so the serial
// replay must land on the identical final state.
type commitImage struct {
	ts   uint64
	rows map[int64]int64
}

// TestTxnDifferentialWall runs concurrent transactional transfer
// histories against a serial oracle across all four layouts, with an
// analytical reader asserting snapshot-consistent sums and a migration
// churn goroutine flipping the layout underneath open transactions.
func TestTxnDifferentialWall(t *testing.T) {
	const (
		accounts   = 32
		startBal   = 100
		workers    = 4
		txnsPer    = 30
		maxRetries = 500
	)
	for _, lay := range diffLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			db := New()
			if err := db.CreateTableWithLayout(salesSchema(), lay.store, lay.spec); err != nil {
				t.Fatal(err)
			}
			rows := make([][]value.Value, 0, accounts)
			for i := int64(0); i < accounts; i++ {
				rows = append(rows, acctRow(i, startBal))
			}
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "sales", Rows: rows})

			var (
				logMu  sync.Mutex
				images []commitImage
			)
			ctx := context.Background()
			readBal := func(tx *Txn, id int64) (int64, error) {
				res, err := tx.Exec(&query.Query{Kind: query.Select, Table: "sales", Pred: idEq(id)})
				if err != nil {
					return 0, err
				}
				if len(res.Rows) != 1 {
					return 0, fmt.Errorf("account %d: %d rows", id, len(res.Rows))
				}
				return res.Rows[0][3].Int(), nil
			}

			var wg sync.WaitGroup
			errCh := make(chan error, workers+2)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < txnsPer; i++ {
						committed := false
						for attempt := 0; attempt < maxRetries && !committed; attempt++ {
							a := rng.Int63n(accounts)
							b := rng.Int63n(accounts)
							if a == b {
								continue
							}
							delta := 1 + rng.Int63n(5)
							tx, err := db.Begin(ctx)
							if err != nil {
								errCh <- err
								return
							}
							balA, err := readBal(tx, a)
							if err == nil {
								_, err = tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
									Pred: idEq(a), Set: map[int]value.Value{3: value.NewInt(balA - delta)}})
							}
							var balB int64
							if err == nil {
								balB, err = readBal(tx, b)
							}
							if err == nil {
								_, err = tx.Exec(&query.Query{Kind: query.Update, Table: "sales",
									Pred: idEq(b), Set: map[int]value.Value{3: value.NewInt(balB + delta)}})
							}
							if err == nil {
								err = tx.Commit(ctx)
							}
							if err != nil {
								tx.Rollback()
								if IsConflict(err) {
									continue // first-updater-wins: lost the race, retry whole txn
								}
								errCh <- err
								return
							}
							logMu.Lock()
							images = append(images, commitImage{ts: tx.CommitTS(),
								rows: map[int64]int64{a: balA - delta, b: balB + delta}})
							logMu.Unlock()
							committed = true
						}
						if !committed {
							errCh <- fmt.Errorf("worker %d: txn %d never committed in %d attempts", seed, i, maxRetries)
							return
						}
					}
				}(int64(w))
			}

			// Analytical reader: every transfer preserves the total, so any
			// snapshot-consistent SUM sees exactly accounts*startBal. A scan
			// mixing pre- and post-commit versions of one transfer would not.
			done := make(chan struct{})
			var auxWg sync.WaitGroup
			auxWg.Add(1)
			go func() {
				defer auxWg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					res, err := db.Exec(&query.Query{Kind: query.Aggregate, Table: "sales",
						Aggs: []agg.Spec{{Func: agg.Sum, Col: 3}}})
					if err != nil {
						errCh <- err
						return
					}
					if got := res.Rows[0][0].Float(); got != accounts*startBal {
						errCh <- fmt.Errorf("scan saw a torn snapshot: SUM(bal) = %v", got)
						return
					}
				}
			}()

			// Migration churn: flip the layout underneath the open
			// transactions; the overlay rides on the table runtime, so a
			// cutover must not disturb in-flight snapshots or claims.
			auxWg.Add(1)
			go func() {
				defer auxWg.Done()
				flips := []struct {
					store catalog.StoreKind
					spec  *catalog.PartitionSpec
				}{
					{catalog.ColumnStore, nil},
					{lay.store, lay.spec},
					{catalog.RowStore, nil},
					{lay.store, lay.spec},
				}
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					f := flips[i%len(flips)]
					if err := db.MigrateLayout("sales", f.store, f.spec); err != nil {
						errCh <- fmt.Errorf("migration churn: %w", err)
						return
					}
				}
			}()

			wg.Wait()
			close(done)
			auxWg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}

			// One more transfer, whose commit stays in the version overlay —
			// this goroutine holds the read lock every fold needs — writing
			// and reading its keys back by key inside the transaction, then
			// keyed auto-commit writes and reads of them before the fold.
			db.Vacuum()
			db.mu.RLock()
			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			balA, errA := readBal(tx, 0)
			balB, errB := readBal(tx, 1)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			updateAndRead(t, db, tx, "sales", 0, 3, value.NewInt(balA-1))
			updateAndRead(t, db, tx, "sales", 0, 3, value.NewInt(balA-7))
			updateAndRead(t, db, tx, "sales", 1, 3, value.NewInt(balB+7))
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			images = append(images, commitImage{ts: tx.CommitTS(), rows: map[int64]int64{0: balA - 7, 1: balB + 7}})
			updateAndRead(t, db, nil, "sales", 0, 3, value.NewInt(balA-10))
			updateAndRead(t, db, nil, "sales", 1, 3, value.NewInt(balB+10))
			db.mu.RUnlock()
			unfolded := map[int64]int64{0: balA - 10, 1: balB + 10}

			db.Vacuum()

			// Serial oracle: replay the committed images in commit order.
			sort.Slice(images, func(i, j int) bool { return images[i].ts < images[j].ts })
			oracle := map[int64]int64{}
			for i := int64(0); i < accounts; i++ {
				oracle[i] = startBal
			}
			var lastTS uint64
			for _, im := range images {
				if im.ts == lastTS {
					t.Fatalf("two commits share timestamp %d", im.ts)
				}
				lastTS = im.ts
				for id, bal := range im.rows {
					oracle[id] = bal
				}
			}
			for id, bal := range unfolded {
				oracle[id] = bal
			}
			if len(images) != workers*txnsPer+1 {
				t.Fatalf("logged %d commits, want %d", len(images), workers*txnsPer+1)
			}

			res := mustExec(t, db, &query.Query{Kind: query.Select, Table: "sales"})
			if len(res.Rows) != accounts {
				t.Fatalf("final state has %d rows, want %d", len(res.Rows), accounts)
			}
			var total int64
			for _, row := range res.Rows {
				id, bal := row[0].Int(), row[3].Int()
				if bal != oracle[id] {
					t.Errorf("account %d: final balance %d, oracle %d", id, bal, oracle[id])
				}
				total += bal
			}
			if total != accounts*startBal {
				t.Fatalf("final total %d, want %d", total, accounts*startBal)
			}
		})
	}
}
