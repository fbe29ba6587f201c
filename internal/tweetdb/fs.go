package tweetdb

import (
	"os"
	"path/filepath"
	"strings"
)

// fault runs before each write, append, fsync and rename the store makes
// and fails it with the error it returns. The tests record the order of
// the operations and fail them on demand through it.
var fault = func(op, path string) error { return nil }

// removeFile deletes one file under dir, refusing to step outside it.
func removeFile(dir, name string) error {
	clean := filepath.Clean(name)
	if strings.Contains(clean, "..") || filepath.IsAbs(clean) {
		return os.ErrPermission
	}
	return os.Remove(filepath.Join(dir, clean))
}

// syncWrite opens path with flag, writes data as op, fsyncs and closes
// it. With no data and no op it fsyncs a directory, making the names
// created or renamed in it durable: without that a power loss can keep
// a file's bytes and lose the entry that names it.
func syncWrite(path string, flag int, op string, data []byte) error {
	if op != "" {
		if err := fault(op, path); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		_, err = f.Write(data)
	}
	if err == nil {
		err = fault("sync", path)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making the names created or renamed in it
// durable. The store and the ingest spool call it after creating a file
// and before acknowledging anything written to it.
func SyncDir(dir string) error { return syncWrite(dir, os.O_RDONLY, "", nil) }

// AtomicWriteFile writes data to path via a temp file, fsync, rename and
// a directory fsync, so readers — and the recovery path after a crash —
// see the old file or the whole new one, and the new one survives a
// power loss once the call returns. The store's log checkpoints and the
// live snapshot write through it.
func AtomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	err := syncWrite(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, "write", data)
	if err == nil {
		err = fault("rename", path)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}
