// Kill-and-recover walkthrough: the durable storage layer end to end
// in one process. A coordination server runs over a file-backed store
// (snapshot + write-ahead log), a streaming session admits a few
// queries, and then the process "crashes" — every file handle is
// dropped without a drain. A second server opened on the same data
// directory replays the store WAL and the session's event journal and
// carries on exactly where the first left off. The program exits
// non-zero on any failure, so CI uses it as the durability smoke test.
// Run:
//
//	go run ./examples/durability
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"entangled/internal/client"
	"entangled/internal/db"
	"entangled/internal/engine"
	"entangled/internal/eq"
	"entangled/internal/persist"
	"entangled/internal/server"
)

// boot opens the data directory and serves the coordination API over
// it on a loopback listener.
func boot(dir string) (*client.Client, *persist.Backend, func(), error) {
	backend, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(engine.New(backend, engine.Options{}), server.Options{Persist: backend})
	if err != nil {
		backend.Close()
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		backend.Close()
		return nil, nil, nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	c, err := client.New("http://"+ln.Addr().String(), client.Options{})
	if err != nil {
		hs.Close()
		srv.Close()
		backend.Close()
		return nil, nil, nil, err
	}
	stop := func() { _ = hs.Close(); srv.Close() }
	return c, backend, stop, nil
}

func main() {
	dir, err := os.MkdirTemp("", "entangled-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// First life: seed the store, admit a session, crash.
	c, backend, stop, err := boot(dir)
	if err != nil {
		log.Fatal(err)
	}
	// Flights(fid, dest) reaches disk as a journaled mutation stream:
	// ApplyAll is one batch, written and fsynced (SyncAlways) once
	// before it returns.
	seed := []db.Mutation{
		db.MCreate("Flights", 1, "fid", "dest"),
		db.MInsert("Flights", "f1", "Paris"),
		db.MInsert("Flights", "f2", "Tokyo"),
		db.MIndex("Flights", 1),
	}
	if err := db.ApplyAll(backend, seed); err != nil {
		log.Fatal(err)
	}
	// user wants to fly wherever buddy flies (the paper's running
	// example); alone they take any flight.
	user := func(name, buddy string) eq.Query {
		q := eq.Query{
			ID:   name,
			Head: []eq.Atom{eq.NewAtom("Go", eq.C(eq.Value(name)), eq.V("d"))},
			Body: []eq.Atom{eq.NewAtom("Flights", eq.V("f"), eq.V("d"))},
		}
		if buddy != "" {
			q.Post = []eq.Atom{eq.NewAtom("Go", eq.C(eq.Value(buddy)), eq.V("d"))}
		}
		return q
	}
	sess, err := c.CreateSession(ctx, "trip", false)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []eq.Query{user("alice", "bob"), user("bob", "alice")} {
		up, err := sess.Join(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		// The ack implies the event is fsynced in the node's log.
		fmt.Printf("first life: %s admitted=%v team=%d\n", q.ID, up.Admitted, up.TeamSize)
	}
	fmt.Println("crash: dropping every file handle, no drain, no final sync")
	stop()
	backend.Abort()

	// Second life: same directory, nothing else carried over.
	c2, backend2, stop2, err := boot(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { stop2(); backend2.Close() }()
	rec, err := c2.Recovery(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d store mutations, %d session(s) with %d event(s): %v\n",
		rec.WALFrames+rec.SnapshotFrames, rec.Sessions, rec.SessionEvents, rec.RecoveredSessions)
	if rec.Sessions != 1 || rec.SessionEvents != 2 {
		log.Fatalf("recovery lost state: %+v", rec)
	}
	st, err := c2.Session("trip").Status(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	if st.Result == nil || len(st.Result.Set) != 2 {
		log.Fatalf("recovered session did not quiesce to the team: %+v", st)
	}
	dest := st.Result.Values[0]["d"]
	fmt.Printf("second life: alice and bob still coordinated, destination %s\n", dest)
	// And the session is live, not a museum piece: carol joins it.
	up, err := c2.Session("trip").Join(ctx, user("carol", ""))
	if err != nil || !up.Admitted {
		log.Fatalf("join after recovery: admitted=%v err=%v", up.Admitted, err)
	}
	fmt.Printf("second life: carol joined the recovered session, team=%d\n", up.TeamSize)
}
