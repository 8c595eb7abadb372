package main

// checkConservation checks the grant/release books of a run: the
// acquires the load side saw granted equal the manager's grant delta,
// the releases it saw equal the manager's release delta, and every
// grant was released.
func checkConservation(acquired, released int64, grantDelta, releaseDelta uint64) error {
	if uint64(acquired) != grantDelta {
		return checkf("clients counted %d granted acquires, the manager %d", acquired, grantDelta)
	}
	if uint64(released) != releaseDelta {
		return checkf("clients counted %d releases, the manager %d", released, releaseDelta)
	}
	if acquired != released {
		return checkf("%d grants but %d releases", acquired, released)
	}
	return nil
}
