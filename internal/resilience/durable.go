package resilience

import (
	"fmt"
	"io"

	"rhsc/internal/durable"
)

// DurableCheckpointer commits periodic checkpoints of a running
// simulation through a durable generation store, so a process death at
// any instant — including mid-checkpoint — leaves the newest fully
// committed generation recoverable. It pairs with the Guard: the Guard
// absorbs numerical faults inside the process, the checkpointer covers
// the faults that kill it.
type DurableCheckpointer struct {
	// Store is the generation store checkpoints commit into.
	Store *durable.Store
	// Name is the object name within the store (durable.ValidName).
	Name string
	// Every is the step interval between commits (<=0 disables Tick).
	Every int
}

// Tick commits a checkpoint when step has crossed the interval since
// the last commit. save writes the checkpoint payload (typically
// Solver/Tree SaveExact); it runs only on committing ticks. Returns
// whether a commit happened.
func (d *DurableCheckpointer) Tick(step int, save func(w io.Writer) error) (bool, error) {
	if d.Every <= 0 || step == 0 || step%d.Every != 0 {
		return false, nil
	}
	if _, err := d.Store.Commit(d.Name, save); err != nil {
		return false, fmt.Errorf("resilience: durable checkpoint at step %d: %w", step, err)
	}
	return true, nil
}

// RecoverLatest loads the newest fully-valid generation of name from a
// store in dir, handing the verified payload to restore. Corrupt
// generations are quarantined and skipped exactly as in Store.Load.
// Returns the generation recovered, or durable.ErrNotExist when no
// checkpoint was ever committed.
func RecoverLatest(fsys durable.FS, dir, name string, restore func(r io.Reader) error) (uint64, error) {
	st, err := durable.Open(fsys, dir, nil)
	if err != nil {
		return 0, err
	}
	return st.Load(name, restore)
}
