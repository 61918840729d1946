package sweepstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// legacyShard is a shard file of the one-JSON-file-per-entry layout.
type legacyShard struct {
	Seed  int64                   `json:"seed"`
	Shots int                     `json:"shots"`
	Runs  []experiments.LERResult `json:"runs"`
}

// importLegacy moves a store written in the earlier layout, which
// always stamped VERSION at Open, into fresh segments. Only these files
// are recognized:
//
//	shards/<k[:2]>/<k>.json     one JSON file per shard key k
//	jobs/<h>/spec.json          the submitted spec of job h
//	jobs/<h>/result.json        the folded results of job h
//	.tmp-*                      a temp file of an interrupted write, at the
//	                            root or inside one of those directories
//
// Each shard keeps its file's modification time (its LRU access time)
// and must pass the checks the earlier GetShard made; a file that fails
// them would have been a miss and is dropped. The segments are synced
// before the recognized files are deleted, so a crash in between imports
// again from the same files and loses nothing. Anything else under
// shards/ or jobs/ stays, and so do the directories that still hold it.
// It reports whether it wrote anything.
func (s *Store) importLegacy() (bool, error) {
	files, dirs, err := legacyFiles(s.root)
	if err != nil {
		return false, fmt.Errorf("sweepstore: import legacy store: %w", err)
	}
	if len(files) == 0 && len(dirs) == 0 {
		return false, nil
	}
	var run segRun
	for _, lf := range files {
		if err = lf.importTo(s, &run); err != nil {
			break
		}
	}
	if err == nil {
		err = run.sync(s)
	}
	if err != nil {
		return false, errors.Join(fmt.Errorf("sweepstore: import legacy store: %w", err), run.remove(s))
	}
	var errs []error
	for _, seg := range run.segs {
		errs = append(errs, seg.f.Close())
	}
	for _, lf := range files {
		errs = append(errs, os.Remove(lf.path))
	}
	// dirs lists each directory after the ones inside it.
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err == nil && len(ents) == 0 {
			err = os.Remove(dir)
		}
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return false, fmt.Errorf("sweepstore: import legacy store: %w", err)
	}
	return len(run.segs) > 0, nil
}

// legacyFile is a recognized file of the earlier layout; kind 0 marks a
// stray temp file, which is deleted without being imported.
type legacyFile struct {
	path string
	kind kind
	key  digest
}

// legacyFiles lists the recognized files under root, and the shards/
// and jobs/ directories that may hold them, each after its
// subdirectories.
func legacyFiles(root string) ([]legacyFile, []string, error) {
	strays, err := filepath.Glob(filepath.Join(root, ".tmp-*"))
	if err != nil {
		return nil, nil, err
	}
	var files []legacyFile
	for _, p := range strays {
		files = append(files, legacyFile{path: p})
	}
	var dirs []string
	// scan visits top/<sub>/<name> for every sub that dirOK accepts and
	// keeps the files that recognize names.
	scan := func(top string, dirOK func(sub string) bool, recognize func(sub, name string) (legacyFile, bool)) error {
		ents, err := os.ReadDir(top)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() || !dirOK(e.Name()) {
				continue
			}
			sub := filepath.Join(top, e.Name())
			fents, err := os.ReadDir(sub)
			if err != nil {
				return err
			}
			for _, fe := range fents {
				if !fe.Type().IsRegular() {
					continue
				}
				if strings.HasPrefix(fe.Name(), ".tmp-") {
					files = append(files, legacyFile{path: filepath.Join(sub, fe.Name())})
				} else if lf, ok := recognize(e.Name(), fe.Name()); ok {
					lf.path = filepath.Join(sub, fe.Name())
					files = append(files, lf)
				}
			}
			dirs = append(dirs, sub)
		}
		dirs = append(dirs, top)
		return nil
	}
	err = scan(filepath.Join(root, "shards"), func(sub string) bool {
		return len(sub) == 2 && lowerHex(sub)
	}, func(sub, name string) (legacyFile, bool) {
		key, ok := strings.CutSuffix(name, ".json")
		d, valid := parseDigest(key)
		return legacyFile{kind: kindShard, key: d}, ok && valid && key[:2] == sub
	})
	if err != nil {
		return nil, nil, err
	}
	err = scan(filepath.Join(root, "jobs"), ValidKey, func(sub, name string) (legacyFile, bool) {
		d, _ := parseDigest(sub)
		switch name {
		case "spec.json":
			return legacyFile{kind: kindSpec, key: d}, true
		case "result.json":
			return legacyFile{kind: kindResult, key: d}, true
		}
		return legacyFile{}, false
	})
	if err != nil {
		return nil, nil, err
	}
	return files, dirs, nil
}

// importTo appends lf's record to run, unless lf is a stray temp file
// or fails the checks the earlier reader made.
func (lf legacyFile) importTo(s *Store, run *segRun) error {
	if lf.kind == 0 {
		return nil
	}
	fi, err := os.Stat(lf.path)
	if err != nil {
		return err
	}
	blob, err := os.ReadFile(lf.path)
	if err != nil {
		return err
	}
	body, ok := legacyBody(lf.kind, blob)
	if !ok {
		return nil
	}
	_, err = run.append(s, appendRecord(nil, lf.kind, lf.key, fi.ModTime().UnixNano(), body))
	return err
}

// legacyBody converts one legacy file to a record body, checking it as
// the earlier reader would have: a shard must decode with one run per
// shot, a spec or result must decode at all.
func legacyBody(k kind, blob []byte) ([]byte, bool) {
	if k != kindShard {
		return blob, checkBody(k, blob) == nil
	}
	var sf legacyShard
	if err := json.Unmarshal(blob, &sf); err != nil || len(sf.Runs) != sf.Shots {
		return nil, false
	}
	return appendShardBody(nil, sf.Seed, sf.Runs), true
}
