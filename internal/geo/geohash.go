package geo

// GeohashCellID returns the geohash cell of p at the given precision as an
// integer: the interleaved subdivision bits the standard geohash renders
// in base-32 (5 bits a character, longitude first), preceded by a sentinel
// 1 bit so identifiers of different precisions never collide. Two points
// share a geohash string at some precision exactly when they share the
// cell ID at that precision, so the ID stands in for the string — without
// allocating — where only cell identity matters: the distinct-locations
// count of Table I. Precision is clamped to 1..12.
func GeohashCellID(p Point, precision int) uint64 {
	if precision < 1 {
		precision = 1
	}
	if precision > 12 {
		precision = 12
	}
	latMin, latMax := -90.0, 90.0
	lonMin, lonMax := -180.0, 180.0
	evenBit := true // true: longitude bit next
	id := uint64(1)
	for bit := 0; bit < 5*precision; bit++ {
		if evenBit {
			mid := (lonMin + lonMax) / 2
			if p.Lon >= mid {
				id = id<<1 | 1
				lonMin = mid
			} else {
				id <<= 1
				lonMax = mid
			}
		} else {
			mid := (latMin + latMax) / 2
			if p.Lat >= mid {
				id = id<<1 | 1
				latMin = mid
			} else {
				id <<= 1
				latMax = mid
			}
		}
		evenBit = !evenBit
	}
	return id
}
