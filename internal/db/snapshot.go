package db

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// snapshotManifest describes an instance saved to disk: one CSV file
// per relation plus this JSON manifest carrying attribute names and
// index definitions (CSV alone cannot).
type snapshotManifest struct {
	Relations []relationManifest `json:"relations"`
}

type relationManifest struct {
	Name    string   `json:"name"`
	Attrs   []string `json:"attrs"`
	Indexes []int    `json:"indexes"`
	File    string   `json:"file"`
}

// Save writes the instance to dir (created if missing): manifest.json
// plus <relation>.csv per relation. Existing files are overwritten.
func (in *Instance) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var man snapshotManifest
	names := in.RelationNames()
	for _, name := range names {
		r, _ := in.Relation(name)
		file := name + ".csv"
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if err := r.DumpCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		man.Relations = append(man.Relations, relationManifest{
			Name:    name,
			Attrs:   append([]string(nil), r.Attrs...),
			Indexes: r.IndexedColumns(),
			File:    file,
		})
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// Load reads an instance previously written by Save. It builds the
// instance through the ordinary CreateRelation/BuildIndex surface, so
// the schema-version counters the compiled-plan cache validates
// against are advanced exactly as for a hand-built instance. Only the
// manifest's indexes are built, once each, after the rows are in.
func Load(dir string) (*Instance, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var man snapshotManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("db: bad manifest: %w", err)
	}
	in := NewInstance()
	for _, rm := range man.Relations {
		f, err := os.Open(filepath.Join(dir, rm.File))
		if err != nil {
			return nil, err
		}
		rel, err := in.readCSV(rm.Name, f)
		f.Close()
		if err != nil {
			// An empty relation dumps an empty CSV, which readCSV
			// rejects; recreate it structurally instead.
			if len(rm.Attrs) > 0 {
				rel = in.CreateRelation(rm.Name, rm.Attrs...)
			} else {
				return nil, err
			}
		}
		if rel.Arity() != len(rm.Attrs) {
			return nil, fmt.Errorf("db: %s: manifest declares %d attrs, CSV has %d", rm.Name, len(rm.Attrs), rel.Arity())
		}
		rel.Attrs = append([]string(nil), rm.Attrs...)
		for _, col := range rm.Indexes {
			if col < 0 || col >= rel.Arity() {
				return nil, fmt.Errorf("db: %s: index column %d out of range", rm.Name, col)
			}
			rel.BuildIndex(col)
		}
	}
	return in, nil
}
