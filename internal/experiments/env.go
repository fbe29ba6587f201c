// Package experiments contains one deterministic regenerator per table and
// figure of the paper, plus the ablations called out in DESIGN.md §3. Each
// experiment consumes a shared Env (synthetic corpus + completed study) and
// returns render-ready tables/series; when Env.OutDir is set the artefacts
// are also written to disk.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"geomob/internal/core"
	"geomob/internal/synth"
	"geomob/internal/tweet"
)

// Env is the shared experiment environment: one synthetic corpus, one
// completed multi-scale study, and an optional output directory.
type Env struct {
	Config synth.Config
	Tweets []tweet.Tweet
	Study  *core.Study
	Result *core.Result
	Opts   core.StudyOptions // execution options for the study and reruns
	OutDir string            // when non-empty, experiments write artefacts here
}

// NewEnv generates the calibrated default corpus at the given scale
// (number of users) and seeds, runs the full study with the given worker
// count (0 means one worker per CPU; every rerun the ablations perform
// uses it too), and prepares outDir (which may be empty to skip writing
// artefacts). The full-study pass aborts promptly (with an error wrapping
// ctx.Err()) when ctx is cancelled, so an interrupted reproduction run
// stops mid-scan instead of finishing a multi-minute pass nobody will
// read.
func NewEnv(ctx context.Context, users int, seed1, seed2 uint64, outDir string, workers int) (*Env, error) {
	cfg := synth.DefaultConfig(users, seed1, seed2)
	opts := core.StudyOptions{Workers: workers}
	gen, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	study := core.NewStudyWithOptions(core.SliceSource(tweets), opts)
	result, err := study.Execute(ctx, core.Request{})
	if err != nil {
		return nil, fmt.Errorf("experiments: run study: %w", err)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: create output dir: %w", err)
		}
	}
	return &Env{Config: cfg, Tweets: tweets, Study: study, Result: result, Opts: opts, OutDir: outDir}, nil
}

// writeArtefact writes one named artefact via the render callback when
// OutDir is set; otherwise it is a no-op.
func (e *Env) writeArtefact(name string, render func(io.Writer) error) error {
	if e.OutDir == "" {
		return nil
	}
	path := filepath.Join(e.OutDir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", name, err)
	}
	defer f.Close()
	if err := render(f); err != nil {
		return fmt.Errorf("experiments: render %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: close %s: %w", name, err)
	}
	return nil
}
