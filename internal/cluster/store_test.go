package cluster

import (
	"fmt"
	"strings"
	"testing"

	"exist/internal/faults"
)

// drawPut, drawPutBatch and drawInsert are the store operations without
// the can-fail shortcut: every attempt bumps the per-key ledger and asks
// the injector, as every call did before the shortcut.
func drawPut(o *ObjectStore, key string, data []byte) error {
	s := o.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	attempt := s.attempts[key]
	s.attempts[key] = attempt + 1
	if err := o.inj.PutError(key, attempt); err != nil {
		o.failures.Add(1)
		return err
	}
	o.storeLocked(s, key, data)
	o.puts.Add(1)
	return nil
}

func drawPutBatch(o *ObjectStore, batchKey string, keys []string, blobs [][]byte) error {
	bs := o.shardFor(batchKey)
	bs.mu.Lock()
	attempt := bs.attempts[batchKey]
	bs.attempts[batchKey] = attempt + 1
	bs.mu.Unlock()
	if err := o.inj.PutError(batchKey, attempt); err != nil {
		o.failures.Add(1)
		return err
	}
	for i, key := range keys {
		s := o.shardFor(key)
		s.mu.Lock()
		o.storeLocked(s, key, blobs[i])
		s.mu.Unlock()
	}
	o.puts.Add(1)
	return nil
}

func drawInsert(d *DataStore, batch string, rows ...Row) error {
	s := d.shardFor(batch)
	s.mu.Lock()
	defer s.mu.Unlock()
	attempt := s.attempts[batch]
	s.attempts[batch] = attempt + 1
	if err := d.inj.InsertError(batch, attempt); err != nil {
		d.failures.Add(1)
		return err
	}
	s.rows = append(s.rows, rows...)
	return nil
}

// storeOps is one store pair's operation surface.
type storeOps struct {
	put      func(o *ObjectStore, key string, data []byte) error
	putBatch func(o *ObjectStore, batchKey string, keys []string, blobs [][]byte) error
	insert   func(d *DataStore, batch string, rows ...Row) error
}

// storeWorkload runs retried puts, batched puts and inserts and renders
// every result and counter.
func storeWorkload(cfg faults.Config, ops storeOps) string {
	inj := faults.New(cfg)
	o, d := NewObjectStoreShards(4), NewDataStoreShards(4)
	o.UseFaults(inj)
	d.UseFaults(inj)
	var log []string
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("sessions/r-%d/node-%d", i%7, i)
		for a := 0; a < 3; a++ {
			err := ops.put(o, key, []byte(key))
			log = append(log, fmt.Sprintf("put %s %v", key, err == nil))
			if err == nil {
				break
			}
		}
		if i%5 == 0 {
			keys := []string{key + "/b0", key + "/b1"}
			for a := 0; a < 3; a++ {
				err := ops.putBatch(o, fmt.Sprintf("batch-%d", i), keys, [][]byte{{1}, {2, 3}})
				log = append(log, fmt.Sprintf("batch %d %v", i, err == nil))
				if err == nil {
					break
				}
			}
		}
		for a := 0; a < 3; a++ {
			err := ops.insert(d, key, Row{App: "Agent", Session: key, Key: "f", Value: float64(i)})
			log = append(log, fmt.Sprintf("insert %s %v", key, err == nil))
			if err == nil {
				break
			}
		}
	}
	return fmt.Sprintf("%v\nputs=%d failures=%d bytes=%d keys=%v rows=%d dsfail=%d stats=%+v",
		log, o.Puts(), o.Failures(), o.Bytes(), o.List("sessions/"), d.Len(), d.Failures(), inj.Stats())
}

// TestStoreAttemptLedgerShortcutMatchesDraw pins that skipping the
// per-key attempt ledger when the injector cannot fail an operation
// changes no result and no counter, and that a fallible injector still
// sees per-attempt draws.
func TestStoreAttemptLedgerShortcutMatchesDraw(t *testing.T) {
	fast := storeOps{
		put:      (*ObjectStore).Put,
		putBatch: (*ObjectStore).PutBatch,
		insert:   (*DataStore).Insert,
	}
	draw := storeOps{put: drawPut, putBatch: drawPutBatch, insert: drawInsert}
	for _, cfg := range []faults.Config{
		{Seed: 5, SessionLossProb: 0.5, GrayNodeProb: 0.5},
		{Seed: 5, PutFailProb: 0.4},
		{Seed: 5, InsertFailProb: 0.4},
		{Seed: 5, PutFailProb: 0.3, InsertFailProb: 0.3},
	} {
		got, want := storeWorkload(cfg, fast), storeWorkload(cfg, draw)
		if got != want {
			t.Fatalf("%+v:\nshortcut: %s\ndraw:     %s", cfg, got, want)
		}
		if (cfg.PutFailProb > 0) == strings.Contains(got, " failures=0 ") ||
			(cfg.InsertFailProb > 0) == strings.Contains(got, " dsfail=0 ") {
			t.Fatalf("%+v: injected failures do not match the config: %s", cfg, got)
		}
	}

	// With nothing that can fail, the ledger stays empty.
	inj := faults.New(faults.Config{Seed: 5, SessionLossProb: 1})
	o, d := NewObjectStoreShards(1), NewDataStoreShards(1)
	o.UseFaults(inj)
	d.UseFaults(inj)
	if o.Put("k", []byte{1}) != nil || o.PutBatch("b", []string{"k2"}, [][]byte{{2}}) != nil || d.Insert("k") != nil {
		t.Fatal("infallible store operation failed")
	}
	if len(o.shards[0].attempts) != 0 || len(d.shards[0].attempts) != 0 {
		t.Fatalf("attempt ledgers %v %v; want empty", o.shards[0].attempts, d.shards[0].attempts)
	}
}
