package ldt

// The two LDT constructions (described in construct.go) in
// continuation-passing step form. Every wake, message and RNG draw
// happens at the same sequential point as in the goroutine originals
// they were transcribed from, which the frozen ldtmis and core digests
// hold them to.

import "awakemis/internal/sim"

// ConstructAwake runs the randomized construction for the given number
// of phases, then k. By then every participant of a component of size
// ≤ np belongs (w.h.p.) to a single LDT spanning the component.
func (p *SProc) ConstructAwake(phases int, k func()) {
	loopN(phases, func(_ int, next func()) {
		// (a) Exchange fragment IDs with neighbors.
		p.adjacent(kRoot, []int64{p.rootID}, func(in []sim.Inbound) {
			nbrRoot := map[int]int64{}
			for _, m := range in {
				nbrRoot[m.Port] = m.Msg.(opMsg).F[0]
			}

			// (b) Upcast the fragment's minimum outgoing edge.
			p.upcast(p.minEdge(nbrRoot), mergeMinEdge, func(agg []int64, _ map[int][]int64) {
				// (c) Root draws the phase coin and broadcasts (edge, coin).
				var down []int64
				if p.IsRoot() {
					if agg != nil {
						down = []int64{agg[0], agg[1], int64(p.rnd.Intn(2))}
					}
					// No outgoing edge: component complete; broadcast nothing.
				}
				p.downcast(down, nil, func(dec []int64) {
					var chosenLo, chosenHi, coin int64 = -1, -1, 0
					if dec != nil {
						chosenLo, chosenHi, coin = dec[0], dec[1], dec[2]
					}

					// (d) Endpoint exchange across fragment boundaries: everyone
					// announces (rootID, coin, depth, chosenLo, chosenHi).
					ann := []int64{p.rootID, coin, int64(p.depth), chosenLo, chosenHi}
					p.adjacent(kRoot, ann, func(in []sim.Inbound) {
						var pend *pending
						myPort := -1
						if chosenLo >= 0 {
							myPort = p.edgePort(chosenLo, chosenHi)
						}
						for _, m := range in {
							f := m.Msg.(opMsg).F
							nRoot, nCoin, nDepth, nLo, nHi := f[0], f[1], f[2], f[3], f[4]
							if nRoot == p.rootID {
								continue
							}
							// Tails fragment attaches through its chosen edge into a
							// heads fragment.
							if coin == 0 && m.Port == myPort && nCoin == 1 {
								pend = &pending{
									rootID:   nRoot,
									depth:    int(nDepth) + 1,
									parent:   m.Port,
									viaChild: -1,
								}
							}
							// Heads side: a tails neighbor whose chosen edge is this
							// edge becomes a child.
							if coin == 1 && nCoin == 0 && nLo >= 0 {
								if q := p.edgePort(nLo, nHi); q == m.Port {
									p.addChild(m.Port)
								}
							}
						}

						// (e) Relabel the merging fragment.
						oldParent := p.parentPort
						p.upRelabel(pend, func(pend *pending) {
							p.downRelabel(pend, func(pend *pending) {
								p.applyPending(pend, oldParent)
								next()
							})
						})
					})
				})
			})
		})
	}, k)
}

// ConstructRound runs the deterministic Appendix A construction for the
// given number of phases (DefaultRoundPhases(np) suffices), then k.
func (p *SProc) ConstructRound(phases int, k func()) {
	loopN(phases, func(_ int, next func()) {
		p.constructRoundPhaseStep(next)
	}, k)
}

func (p *SProc) constructRoundPhaseStep(done func()) {
	// Phase state shared by the stage continuations.
	var (
		nbrRoot        map[int]int64
		nbrChosen      map[int][2]int64
		chosenLo       int64 = -1
		chosenHi       int64 = -1
		parentEdgePort       = -1
		childPorts     []int
		isTRoot        bool
		color          int64
		matched        bool
		fPorts         []int
	)
	var stage2a, stage2c, stage2d, stage2e, stage2f, stage3 func()

	// colorStep: one Cole–Vishkin mini-step (downcast current color,
	// adjacent exchange, upcast parent/child colors, root recomputes).
	colorStep := func(compute func(cur, parentColor, childColor int64) int64, then func()) {
		p.downcast(colorValIfRoot(&p.treeState, color), nil, func(cur []int64) {
			if cur != nil {
				color = cur[0]
			}
			p.adjacent(kRoot, []int64{p.rootID, color}, func(ex []sim.Inbound) {
				var parentColor, childColor []int64
				for _, m := range ex {
					f := m.Msg.(opMsg).F
					if m.Port == parentEdgePort {
						parentColor = []int64{f[1]}
					}
					for _, q := range childPorts {
						if m.Port == q {
							childColor = []int64{f[1]}
						}
					}
				}
				own := []int64{encOpt(parentColor), encOpt(childColor)}
				p.upcast(own, mergeOptPair, func(aggC []int64, _ map[int][]int64) {
					if p.IsRoot() {
						pc, cc := int64(-1), int64(-1)
						if aggC != nil {
							pc, cc = aggC[0], aggC[1]
						}
						if isTRoot || pc < 0 {
							pc = syntheticParent(color)
						}
						color = compute(color, pc, cc)
					}
					then()
				})
			})
		})
	}

	// ---- Stage 1: minimum outgoing edge, known to all members. ----
	stage1 := func() {
		p.adjacent(kRoot, []int64{p.rootID}, func(in []sim.Inbound) {
			nbrRoot = map[int]int64{}
			for _, m := range in {
				nbrRoot[m.Port] = m.Msg.(opMsg).F[0]
			}
			p.upcast(p.minEdge(nbrRoot), mergeMinEdge, func(agg []int64, _ map[int][]int64) {
				var down []int64
				if p.IsRoot() && agg != nil {
					down = []int64{agg[0], agg[1]}
				}
				p.downcast(down, nil, func(dec []int64) {
					if dec != nil {
						chosenLo, chosenHi = dec[0], dec[1]
					}
					if chosenLo >= 0 {
						parentEdgePort = p.edgePort(chosenLo, chosenHi)
					}

					// Endpoint exchange: (rootID, chosenLo, chosenHi).
					p.adjacent(kRoot, []int64{p.rootID, chosenLo, chosenHi}, func(in []sim.Inbound) {
						nbrChosen = map[int][2]int64{}
						for _, m := range in {
							f := m.Msg.(opMsg).F
							nbrChosen[m.Port] = [2]int64{f[1], f[2]}
						}
						// childPorts: ports whose neighbor fragment chose the edge to us.
						childPorts = []int{}
						for _, q := range p.active {
							if nbrRoot[q] == p.rootID {
								continue
							}
							ch, ok := nbrChosen[q]
							if !ok || ch[0] < 0 {
								continue
							}
							if p.edgePort(ch[0], ch[1]) == q {
								childPorts = append(childPorts, q)
							}
						}
						stage2a()
					})
				})
			})
		})
	}

	// ---- Stage 2a: identify the supergraph-tree root fragment. ----
	stage2a = func() {
		var mutual []int64 // [otherRootID]
		if parentEdgePort >= 0 {
			if ch, ok := nbrChosen[parentEdgePort]; ok && ch == [2]int64{chosenLo, chosenHi} {
				mutual = []int64{nbrRoot[parentEdgePort]}
			}
		}
		p.upcast(mutual, mergeFirst, func(aggMut []int64, _ map[int][]int64) {
			var tFlag []int64
			if p.IsRoot() {
				isTR := int64(0)
				if chosenLo < 0 {
					isTR = 1 // no outgoing edge: fragment is alone, trivially root
				} else if aggMut != nil && p.rootID < aggMut[0] {
					isTR = 1
				}
				tFlag = []int64{isTR}
			}
			p.downcast(tFlag, nil, func(flag []int64) {
				isTRoot = flag != nil && flag[0] == 1
				stage2c()
			})
		})
	}

	// ---- Stage 2c: Cole–Vishkin 6-coloring of fragments. ----
	stage2c = func() {
		color = p.rootID
		loopN(cvIterations, func(_ int, nextIt func()) {
			colorStep(func(cur, pc, _ int64) int64 { return cvStep(cur, pc) }, nextIt)
		}, func() {
			// Two shift-down + recolor passes eliminate colors 7 and 6.
			targets := []int64{7, 6}
			loopN(len(targets), func(ti int, nextT func()) {
				target := targets[ti]
				colorStep(func(cur, pc, _ int64) int64 {
					// Shift down: take the parent's color; the T-root picks a
					// fresh color from {0,1,2} different from its own.
					if isTRoot {
						return syntheticParent(cur)
					}
					return pc
				}, func() {
					colorStep(func(cur, pc, cc int64) int64 {
						if cur != target {
							return cur
						}
						for c := int64(0); c < 6; c++ {
							if c != pc && c != cc {
								return c
							}
						}
						return cur // unreachable
					}, nextT)
				})
			}, func() {
				// Distribute the final color.
				p.downcast(colorValIfRoot(&p.treeState, color), nil, func(fin []int64) {
					if fin != nil {
						color = fin[0]
					}
					stage2d()
				})
			})
		})
	}

	// ---- Stage 2d: maximal matching of fragments along tree edges. ----
	stage2d = func() {
		matched = false
		fPorts = []int{} // my ports that carry F-edges (supergraph forest edges)
		loopN(6, func(ci int, nextC func()) {
			c := int64(ci)
			// m1: refresh members' matched flag.
			var mv []int64
			if p.IsRoot() {
				mv = []int64{b2i(matched)}
			}
			p.downcast(mv, nil, func(d []int64) {
				if d != nil {
					matched = d[0] == 1
				}
				// m2: exchange (rootID, matched).
				p.adjacent(kRoot, []int64{p.rootID, b2i(matched)}, func(ex []sim.Inbound) {
					nbrMatched := map[int]bool{}
					for _, m := range ex {
						f := m.Msg.(opMsg).F
						nbrMatched[m.Port] = f[1] == 1
					}
					// m3: upcast minimum unmatched-child edge (color-c fragments).
					var own []int64
					if !matched && color == c {
						for _, q := range childPorts {
							if nbrMatched[q] {
								continue
							}
							lo, hi := p.id, p.nbrID[q]
							if lo > hi {
								lo, hi = hi, lo
							}
							if own == nil || lo < own[0] || (lo == own[0] && hi < own[1]) {
								own = []int64{lo, hi}
							}
						}
					}
					p.upcast(own, mergeMinEdge, func(aggE []int64, _ map[int][]int64) {
						// m4: downcast the chosen edge; choosing marks us matched.
						var pick []int64
						if p.IsRoot() && !matched && color == c && aggE != nil {
							pick = []int64{aggE[0], aggE[1]}
							matched = true
						}
						p.downcast(pick, nil, func(d []int64) {
							pickPort := -1
							if d != nil {
								matched = true
								pickPort = p.edgePort(d[0], d[1])
								if pickPort >= 0 {
									// Only the endpoint whose port crosses to the child counts.
									found := false
									for _, q := range childPorts {
										if q == pickPort {
											found = true
										}
									}
									if !found {
										pickPort = -1
									}
								}
							}
							// m5: notify the chosen child across the edge.
							var note []int64
							if pickPort >= 0 {
								note = []int64{1}
								fPorts = append(fPorts, pickPort)
							}
							p.adjacentTargeted(pickPort, note, func(got []int) {
								justMatched := -1
								for _, g := range got {
									if g == parentEdgePort {
										// Our parent matched us through our parent edge.
										justMatched = g
										fPorts = append(fPorts, g)
									}
								}
								// m6: the newly matched child fragment informs its root.
								var up []int64
								if justMatched >= 0 {
									up = []int64{1}
								}
								p.upcast(up, mergeFirst, func(aggJ []int64, _ map[int][]int64) {
									if p.IsRoot() && aggJ != nil {
										matched = true
									}
									nextC()
								})
							})
						})
					})
				})
			})
		}, func() {
			// Final matched-flag refresh.
			var mv []int64
			if p.IsRoot() {
				mv = []int64{b2i(matched)}
			}
			p.downcast(mv, nil, func(d []int64) {
				if d != nil {
					matched = d[0] == 1
				}
				stage2e()
			})
		})
	}

	// ---- Stage 2e: unmatched non-root fragments attach to parent. ----
	stage2e = func() {
		var attach []int64
		attachPort := -1
		if !matched && !isTRoot && parentEdgePort >= 0 {
			attachPort = parentEdgePort
			attach = []int64{1}
			fPorts = append(fPorts, parentEdgePort)
		}
		p.adjacentTargeted(attachPort, attach, func(got []int) {
			fPorts = append(fPorts, got...)
			stage2f()
		})
	}

	// ---- Stage 2f: an unmatched T-root attaches to one child. ----
	stage2f = func() {
		var ownC []int64
		if !matched && isTRoot {
			for _, q := range childPorts {
				lo, hi := p.id, p.nbrID[q]
				if lo > hi {
					lo, hi = hi, lo
				}
				if ownC == nil || lo < ownC[0] || (lo == ownC[0] && hi < ownC[1]) {
					ownC = []int64{lo, hi}
				}
			}
		}
		p.upcast(ownC, mergeMinEdge, func(aggC2 []int64, _ map[int][]int64) {
			var pick2 []int64
			if p.IsRoot() && !matched && isTRoot && aggC2 != nil {
				pick2 = []int64{aggC2[0], aggC2[1]}
			}
			p.downcast(pick2, nil, func(d2 []int64) {
				pick2Port := -1
				if d2 != nil {
					if q := p.edgePort(d2[0], d2[1]); q >= 0 {
						for _, c := range childPorts {
							if c == q {
								pick2Port = q
								fPorts = append(fPorts, q)
							}
						}
					}
				}
				var note2 []int64
				if pick2Port >= 0 {
					note2 = []int64{1}
				}
				p.adjacentTargeted(pick2Port, note2, func(got []int) {
					fPorts = append(fPorts, got...)
					stage3()
				})
			})
		})
	}

	// ---- Stage 3: merge each small-depth tree around its minimum
	// fragment ID. ----
	stage3 = func() {
		fSet := map[int]bool{}
		for _, q := range fPorts {
			fSet[q] = true
		}
		coreID := p.rootID
		loopN(coreIters, func(_ int, nextIt func()) {
			p.adjacent(kRoot, []int64{coreID}, func(ex []sim.Inbound) {
				best := coreID
				for _, m := range ex {
					if !fSet[m.Port] {
						continue
					}
					if v := m.Msg.(opMsg).F[0]; v < best {
						best = v
					}
				}
				var up []int64
				if best < coreID {
					up = []int64{best}
				}
				p.upcast(up, mergeMinVal, func(aggM []int64, _ map[int][]int64) {
					var dn []int64
					if p.IsRoot() {
						c := coreID
						if aggM != nil && aggM[0] < c {
							c = aggM[0]
						}
						dn = []int64{c}
					}
					p.downcast(dn, nil, func(d []int64) {
						if d != nil {
							coreID = d[0]
						}
						nextIt()
					})
				})
			})
		}, func() {
			loopN(coreIters, func(_ int, nextIt func()) {
				relabeled := p.rootID == coreID
				p.adjacent(kRoot, []int64{b2i(relabeled), coreID, int64(p.depth)}, func(ex []sim.Inbound) {
					var pend *pending
					if !relabeled {
						for _, m := range ex {
							if !fSet[m.Port] {
								continue
							}
							f := m.Msg.(opMsg).F
							if f[0] == 1 && f[1] == coreID {
								pend = &pending{
									rootID:   coreID,
									depth:    int(f[2]) + 1,
									parent:   m.Port,
									viaChild: -1,
								}
								break
							}
						}
					}
					// The far-side (relabeled) endpoint adopts the attaching node
					// as a child.
					if relabeled {
						for _, m := range ex {
							if !fSet[m.Port] {
								continue
							}
							f := m.Msg.(opMsg).F
							if f[0] == 0 {
								p.addChild(m.Port)
							}
						}
					}
					oldParent := p.parentPort
					p.upRelabel(pend, func(pend *pending) {
						p.downRelabel(pend, func(pend *pending) {
							p.applyPending(pend, oldParent)
							nextIt()
						})
					})
				})
			}, done)
		})
	}

	stage1()
}
