// Netservice demonstrates the network stack end to end inside one
// process: it starts an hsqld-equivalent server on a loopback port,
// connects the Go driver, runs DDL + prepared DML + ordered analytics
// over TCP, cancels an in-flight scan, and drains the server.
//
// Against a real daemon the server half is just:
//
//	hsqld -listen :7878 -data /var/lib/hsql
//
// and the client half is unchanged (or use `hsql -connect :7878`).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
)

func main() {
	// Server side: one engine behind a TCP listener. With engine.Open
	// instead of engine.New this is durable, exactly like hsqld -data.
	srv, err := server.Serve(engine.New(), "127.0.0.1:0", server.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Client side: the Go driver. Options.Name labels this session in
	// the server's slow-query log.
	ctx := context.Background()
	conn, err := client.Dial(srv.Addr().String(), client.Options{Name: "example"})
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Exec(ctx, `CREATE TABLE orders (
		o_id BIGINT NOT NULL,
		o_region INTEGER,
		o_total DOUBLE,
		PRIMARY KEY (o_id))`); err != nil {
		log.Fatal(err)
	}

	// Prepared statements bind '?' parameters per execution and are
	// cached server-side.
	ins, err := conn.Prepare(ctx, "INSERT INTO orders VALUES (?, ?, ?)")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := ins.Exec(ctx,
			value.NewBigint(int64(i)),
			value.NewBigint(int64(i%4)),
			value.NewDouble(float64(i)*1.5)); err != nil {
			log.Fatal(err)
		}
	}

	// Analytics with deterministic result order for remote consumers.
	res, err := conn.Query(ctx,
		"SELECT o_region, COUNT(*), SUM(o_total) FROM orders WHERE o_total >= ? GROUP BY o_region ORDER BY o_region",
		value.NewDouble(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("region | count | sum (server-side", res.Duration, ")")
	for _, row := range res.Rows {
		fmt.Printf("%6s | %5s | %s\n", row[0], row[1], row[2])
	}

	// Cancelling the context aborts an in-flight scan at the engine's
	// next batch boundary (~1024 rows).
	cctx, cancel := context.WithTimeout(ctx, 500*time.Microsecond)
	defer cancel()
	if _, err := conn.Query(cctx, "SELECT o_region, SUM(o_total) FROM orders GROUP BY o_region"); err != nil {
		fmt.Println("cancelled in flight:", client.IsCancelled(err))
	} else {
		fmt.Println("scan beat the 500µs deadline")
	}

	// Graceful drain: accepted work finishes, then the engine closes
	// (checkpointing, when durable).
	sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
