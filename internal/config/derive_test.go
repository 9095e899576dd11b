package config

import (
	"reflect"
	"testing"

	"f2c/internal/core"
	"f2c/internal/fognode"
	"f2c/internal/sim"
	"f2c/internal/topology"
)

// derived is what a document yields for the nodes of its city: the
// cloud, one fog layer-1 and one fog layer-2 configuration, each
// through Options and core.Options.Member like every host derives
// them.
func derived(t *testing.T, d Deployment) []any {
	t.Helper()
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	var out []any
	for _, id := range []string{"cloud", "fog1/d01-s01", "fog2/d01"} {
		spec, ok := opts.Topology.Node(id)
		if !ok {
			t.Fatalf("no node %s", id)
		}
		mo := opts.Member(spec)
		if spec.Layer == topology.LayerCloud {
			out = append(out, core.CloudConfig(id, mo))
		} else {
			out = append(out, core.FogConfig(spec, mo))
		}
	}
	return out
}

func TestDegradeReachesFogNodes(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 2}],
		"maxPendingReadings": 200,
		"degradeToSummary": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range derived(t, d)[1:] {
		fc := c.(fognode.Config)
		if fc.MaxPendingReadings != 200 || !fc.DegradeToSummary {
			t.Errorf("%s: maxPendingReadings %d, degradeToSummary %v; want 200, true",
				fc.Spec.ID, fc.MaxPendingReadings, fc.DegradeToSummary)
		}
	}
	// Degrade without the bound that trims would silently do nothing.
	if _, err := Parse([]byte(`{"city":"x","districts":[{"name":"a","sections":1}],"degradeToSummary":true}`)); err == nil {
		t.Error("degradeToSummary without maxPendingReadings must be rejected")
	}
}

// systemScope lists the document fields that configure the hosting
// system rather than a node, and so never reach a node config: the
// ownership rings, the simulated day's per-category flush schedule
// and the standing queries hosts register after building nodes.
var systemScope = map[string]bool{
	"ElasticOwnership":           true,
	"VirtualNodes":               true,
	"Fog1FlushByCategorySeconds": true,
	"Subscriptions":              true,
}

// TestEveryFieldReachesANode sets each Deployment field in turn to a
// valid non-zero value and requires the change to show up in the
// cloud, fog1 or fog2 config the document derives — or, for the
// system-scope fields, in the system options or standing queries. A
// field added to the document but never wired fails here.
func TestEveryFieldReachesANode(t *testing.T) {
	base := Deployment{City: "c", Districts: []DistrictSpec{{Name: "a", Sections: 2}, {Name: "b", Sections: 2}}}
	// Fields that only take effect alongside another one get it in
	// both the base and the variant.
	requires := map[string]func(*Deployment){
		"SegmentStorage":   func(d *Deployment) { d.DataDir = "data" },
		"MemtableBytes":    func(d *Deployment) { d.DataDir, d.SegmentStorage = "data", true },
		"IngestRateBytes":  func(d *Deployment) { d.Overload = true },
		"DegradeToSummary": func(d *Deployment) { d.MaxPendingReadings = 10 },
		"VirtualNodes":     func(d *Deployment) { d.ElasticOwnership = true },
	}
	values := map[string]any{
		"City":                       "other",
		"Districts":                  []DistrictSpec{{Name: "a", Sections: 3}, {Name: "b", Sections: 2}},
		"Codec":                      "none",
		"DataDir":                    "data",
		"Fog1FlushByCategorySeconds": map[string]int{"energy": 60},
		"NodeRetentionSeconds":       map[string]int64{"fog1/d01-s01": 60},
		"Subscriptions":              []SubscriptionSpec{{ID: "s", Type: "traffic", Kind: "window", WindowSeconds: 60}},
	}
	typ := reflect.TypeOf(Deployment{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			before, after := base, base
			if req := requires[f.Name]; req != nil {
				req(&before)
				req(&after)
			}
			field := reflect.ValueOf(&after).Elem().Field(i)
			if v, ok := values[f.Name]; ok {
				field.Set(reflect.ValueOf(v))
			} else {
				switch field.Kind() {
				case reflect.Bool:
					field.SetBool(true)
				case reflect.Int, reflect.Int64:
					field.SetInt(7)
				default:
					t.Fatalf("no test value for %s (%s): add one to values", f.Name, f.Type)
				}
			}
			if err := after.Validate(); err != nil {
				t.Fatalf("variant invalid: %v", err)
			}
			if !reflect.DeepEqual(derived(t, before), derived(t, after)) {
				if systemScope[f.Name] {
					t.Errorf("%s is listed as system scope but changes a node config", f.Name)
				}
				return
			}
			if !systemScope[f.Name] {
				t.Fatalf("%s reaches no node config", f.Name)
			}
			bo, _ := before.Options(sim.WallClock{})
			ao, _ := after.Options(sim.WallClock{})
			if reflect.DeepEqual(bo, ao) && reflect.DeepEqual(before.StandingQueries(), after.StandingQueries()) {
				t.Errorf("%s reaches neither a node nor the system options", f.Name)
			}
		})
	}
}
