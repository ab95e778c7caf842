// Quickstart: create a hybrid-store database, load a table, run a small
// mixed workload, and ask the storage advisor where the table should live.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hybridstore/internal/advisor"
	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

func main() {
	// 1. A hybrid-store database holds row-store and column-store tables
	//    behind one uniform query interface.
	db := engine.New()

	sales := schema.MustNew("sales", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "region", Type: value.Integer},
		{Name: "amount", Type: value.Double},
		{Name: "status", Type: value.Varchar},
	}, "id")
	if err := db.CreateTable(sales, catalog.RowStore); err != nil {
		log.Fatal(err)
	}

	// 2. Load some data.
	var rows [][]value.Value
	for i := 0; i < 50_000; i++ {
		rows = append(rows, []value.Value{
			value.NewBigint(int64(i)),
			value.NewInt(int64(i % 8)),
			value.NewDouble(float64(i%1000) / 10),
			value.NewVarchar([]string{"OPEN", "PAID", "SHIPPED"}[i%3]),
		})
	}
	if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "sales", Rows: rows}); err != nil {
		log.Fatal(err)
	}

	// 3. Run a small mixed workload: analytical aggregates plus point
	//    updates, measuring each statement.
	workload := &query.Workload{}
	for i := 0; i < 50; i++ {
		if i%10 == 0 {
			workload.Add(&query.Query{
				Kind: query.Aggregate, Table: "sales",
				Aggs:    []agg.Spec{{Func: agg.Sum, Col: 2}, {Func: agg.Count, Col: -1}},
				GroupBy: []int{1},
			})
		} else {
			workload.Add(&query.Query{
				Kind: query.Update, Table: "sales",
				Set:  map[int]value.Value{3: value.NewVarchar("PAID")},
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(int64(i * 97))},
			})
		}
	}
	for _, q := range workload.Queries {
		if _, err := db.Exec(q); err != nil {
			log.Fatal(err)
		}
	}

	// 4. Collect table statistics (data characteristics) and ask the
	//    advisor. DefaultModel is the deterministic analytic cost model;
	//    use costmodel.Calibrate for machine-specific estimates.
	if _, err := db.CollectStats("sales"); err != nil {
		log.Fatal(err)
	}
	adv := advisor.New(costmodel.DefaultModel())
	rec := adv.Recommend(workload, advisor.InfoFromCatalog(db.Catalog()), nil, nil)

	fmt.Println("estimated workload runtimes:")
	fmt.Printf("  row store only:    %8.2f ms\n", rec.RowOnlyCost/1e6)
	fmt.Printf("  column store only: %8.2f ms\n", rec.ColumnOnlyCost/1e6)
	fmt.Printf("  recommended:       %8.2f ms\n", rec.TableLevelCost/1e6)
	fmt.Println("recommended layout:")
	for _, ddl := range rec.DDL {
		fmt.Println(" ", ddl)
	}

	// 5. Apply the recommendation and verify the table still answers
	//    queries (the move is transparent).
	store := rec.Layout.Stores.StoreOf("sales")
	if err := db.MigrateLayout("sales", store, rec.Layout.SpecFor("sales")); err != nil {
		log.Fatal(err)
	}
	res, err := db.Exec(&query.Query{
		Kind: query.Aggregate, Table: "sales",
		Aggs: []agg.Spec{{Func: agg.Sum, Col: 2}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after moving to %s: SUM(amount) = %s (in %v)\n",
		store, res.Rows[0][0], res.Duration)
}
