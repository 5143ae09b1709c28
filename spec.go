package awakemis

// GraphSpec describes a generated input graph declaratively, so a Spec
// is fully serializable: the same JSON always reproduces the same
// graph. The fields mirror Generate / GenOptions.
type GraphSpec struct {
	// Family is a Generate family name ("" means "gnp").
	Family string `json:"family,omitempty"`
	// N is the number of nodes (0 means the Generate default, 1024).
	N int `json:"n,omitempty"`
	// P is the edge probability for gnp (0 means 4/n).
	P float64 `json:"p,omitempty"`
	// Degree is the degree for regular / attachments for powerlaw.
	Degree int `json:"degree,omitempty"`
	// Radius is the connection radius for geometric.
	Radius float64 `json:"radius,omitempty"`
	// Seed drives the generator. Zero means "derive from the run seed":
	// the spec's resolved Options.Seed, so one number reproduces both
	// the graph and the run on it.
	Seed int64 `json:"seed,omitempty"`
}

// build generates the graph, substituting runSeed for a zero Seed.
func (gs GraphSpec) build(runSeed int64) (*Graph, error) {
	family := gs.Family
	if family == "" {
		family = "gnp"
	}
	seed := gs.Seed
	if seed == 0 {
		seed = runSeed
	}
	return Generate(family, GenOptions{
		N: gs.N, P: gs.P, Degree: gs.Degree, Radius: gs.Radius, Seed: seed,
	})
}

// Spec is one unit of batch work: which task, on which graph, under
// which options. Specs marshal to/from JSON (the cmd/awakemis -batch
// file is a JSON array of them).
type Spec struct {
	// Name labels the spec in reports and progress output (optional).
	Name string `json:"name,omitempty"`
	// Task is the registered task name to run.
	Task string `json:"task"`
	// Graph describes the input graph.
	Graph GraphSpec `json:"graph"`
	// Options configures the run. A zero Seed is resolved by the Runner
	// through deterministic derivation (see Runner.Seed); Run uses it
	// as-is.
	Options Options `json:"options"`
}

// label names the spec in errors and progress lines.
func (s Spec) label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Task
}
