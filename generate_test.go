package awakemis

import "testing"

func TestGenerateAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		t.Run(fam, func(t *testing.T) {
			g, err := Generate(fam, GenOptions{N: 40, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 40 {
				t.Errorf("family %s: n = %d, want >= 40", fam, g.N())
			}
			// Every generated graph is a usable algorithm input.
			res, err := runOn(g, string(Luby), Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, res.Output.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGenerateDefaults(t *testing.T) {
	g, err := Generate("gnp", GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1024 {
		t.Errorf("default n = %d, want 1024", g.N())
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("klein-bottle", GenOptions{N: 10}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate("regular", GenOptions{N: 3, Degree: 5}); err == nil {
		t.Error("regular with d >= n accepted")
	}
}

func TestGenerateCaseInsensitive(t *testing.T) {
	if _, err := Generate("CYCLE", GenOptions{N: 5}); err != nil {
		t.Errorf("uppercase family rejected: %v", err)
	}
}

func TestGenerateRoundsUpStructured(t *testing.T) {
	// hypercube/torus/grid round n up to the nearest valid size.
	g, err := Generate("hypercube", GenOptions{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 128 {
		t.Errorf("hypercube n = %d, want 128", g.N())
	}
	g, err = Generate("torus", GenOptions{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Errorf("torus n = %d, want 16", g.N())
	}
}
