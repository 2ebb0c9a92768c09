package bench

import "testing"

// A short load script through the real HTTP front must finish every
// job: ServeLoad errors on any job that does not end done, so this is
// the server's liveness under fair share and preemption (the sixth job
// is high priority).
func TestServeLoadCompletesEveryJob(t *testing.T) {
	opts := ServeLoadOptions{Slots: 2, Jobs: 6, Steps: 3}
	res, err := ServeLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != opts.Jobs || res.Completed != opts.Jobs {
		t.Fatalf("submitted %d, completed %d, want %d each", res.Submitted, res.Completed, opts.Jobs)
	}
}
