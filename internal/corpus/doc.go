// Package corpus models web-document collections for person-name entity
// resolution and generates the synthetic datasets that replace WWW'05 and
// WePS-2 (which require web crawls and manual labels we cannot obtain
// offline).
//
// A Collection holds the pages retrieved for one ambiguous person name,
// each page labeled with the ground-truth persona it refers to. The
// generator reproduces the statistical structure the paper's techniques
// exploit: heterogeneous pages, partial and missing information, noisy
// dictionary extraction, skewed cluster sizes, and per-name variation in
// which feature channel is discriminative (the reason different similarity
// functions win on different names, Table III).
//
// The package also owns the collections' wire decoder (decode.go).
// DecodeCollections and DecodeCollectionsObject read the JSON shape every
// page crosses the service in — a journal record's `[collection, …]` and a
// request's `{"collections": […]}` — without reflection, as a strict fast
// path: on the canonical subset of JSON they accept, the result equals
// encoding/json's, and everything else is declined for the caller to
// decode with encoding/json. FuzzDecodeCollections holds the two equal.
package corpus

import (
	"encoding/json"
	"fmt"
	"io"
)

// Document is one web page in a collection.
type Document struct {
	// ID is the document's dense index within its collection.
	ID int `json:"id"`
	// URL is the page address; its host carries identity signal for some
	// personas (feature F2).
	URL string `json:"url"`
	// Text is the page content.
	Text string `json:"text"`
	// PersonaID is the ground-truth real-world person this page refers to.
	// Resolvers must not read it; it exists for training-sample labeling
	// and evaluation, exactly like the manual labels shipped with WWW'05.
	PersonaID int `json:"persona_id"`
}

// Collection is the set of pages retrieved for one ambiguous person name.
type Collection struct {
	// Name is the ambiguous query name (a surname, like "cohen").
	Name string `json:"name"`
	// Docs are the retrieved pages.
	Docs []Document `json:"docs"`
	// NumPersonas is the number of distinct real-world persons.
	NumPersonas int `json:"num_personas"`
}

// GroundTruth returns the reference partition as a label per document.
func (c *Collection) GroundTruth() []int {
	labels := make([]int, len(c.Docs))
	for i, d := range c.Docs {
		labels[i] = d.PersonaID
	}
	return labels
}

// Validate checks internal consistency: IDs dense, persona labels within
// range, and every persona non-empty. A nil collection (a JSON null) is an
// error.
func (c *Collection) Validate() error {
	if c == nil {
		return fmt.Errorf("corpus: nil collection")
	}
	if c.Name == "" {
		return fmt.Errorf("corpus: collection has empty name")
	}
	seen := make(map[int]bool)
	for i, d := range c.Docs {
		if d.ID != i {
			return fmt.Errorf("corpus: doc %d has ID %d", i, d.ID)
		}
		if d.PersonaID < 0 || d.PersonaID >= c.NumPersonas {
			return fmt.Errorf("corpus: doc %d persona %d out of range [0,%d)", i, d.PersonaID, c.NumPersonas)
		}
		seen[d.PersonaID] = true
	}
	if len(seen) != c.NumPersonas {
		return fmt.Errorf("corpus: %d personas declared, %d observed", c.NumPersonas, len(seen))
	}
	return nil
}

// Dataset is a set of collections, one per ambiguous name — the unit the
// experiments run over (WWW'05 is one Dataset of 12 collections).
type Dataset struct {
	// Label names the dataset ("www05-synthetic", "weps-synthetic").
	Label string `json:"label"`
	// Collections hold one entry per ambiguous person name.
	Collections []*Collection `json:"collections"`
}

// TotalDocs returns the number of documents across all collections.
func (d *Dataset) TotalDocs() int {
	total := 0
	for _, c := range d.Collections {
		total += len(c.Docs)
	}
	return total
}

// Validate checks every collection.
func (d *Dataset) Validate() error {
	names := make(map[string]bool)
	for _, c := range d.Collections {
		if err := c.Validate(); err != nil {
			if c == nil {
				return err
			}
			return fmt.Errorf("collection %q: %w", c.Name, err)
		}
		if names[c.Name] {
			return fmt.Errorf("corpus: duplicate collection name %q", c.Name)
		}
		names[c.Name] = true
	}
	return nil
}

// WriteJSON serializes the dataset as indented JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadJSON deserializes a dataset written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("corpus: decoding dataset: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
