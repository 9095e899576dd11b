package config

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestClusterRoundTrip(t *testing.T) {
	c := Cluster{
		Nodes: map[string]string{
			"cloud":        "127.0.0.1:9000",
			"fog2/d01":     "127.0.0.1:9001",
			"fog1/d01-s01": "127.0.0.1:9002",
		},
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadCluster(path)
	if err != nil {
		t.Fatalf("LoadCluster: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("round-trip mismatch: %+v != %+v", got, c)
	}
	want := []string{"cloud", "fog1/d01-s01", "fog2/d01"}
	if ids := got.NodeIDs(); !reflect.DeepEqual(ids, want) {
		t.Errorf("NodeIDs = %v, want %v", ids, want)
	}
}

func TestClusterValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Cluster
	}{
		{"no nodes", Cluster{}},
		{"empty address", Cluster{Nodes: map[string]string{"cloud": ""}}},
		{"empty id", Cluster{Nodes: map[string]string{"": "x"}}},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.c)
		}
	}
	if _, err := ParseCluster([]byte("{")); err == nil {
		t.Error("ParseCluster accepted malformed JSON")
	}
	// Documents written before the cluster had only one transport
	// still carry a "transport" key; it is ignored.
	if _, err := ParseCluster([]byte(`{"transport": "tcp", "nodes": {"cloud": "127.0.0.1:9000"}}`)); err != nil {
		t.Errorf("ParseCluster rejected a document with a transport key: %v", err)
	}
}
