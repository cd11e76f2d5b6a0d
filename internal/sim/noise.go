package sim

import "math/rand"

// noiseSource is the rand.Source behind rngPool: math/rand's own stream,
// bit for bit, with an O(1) Seed. rand.NewSource warms a 607-word
// register with 1,841 steps of the Lehmer generator xₙ₊₁ = 48271·xₙ mod
// (2³¹−1) from the normalized seed x₀: word i is (x₂₁₊₃ᵢ<<40 ^
// x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ rngCooked[i], and draw k adds words 334−k and
// 607−k. Before draw 274 no draw reads a word an earlier one wrote back,
// so each is a closed form in x₀, with xₙ = x₀·48271ⁿ mod (2³¹−1). The
// first noiseWindow draws are computed so; later ones come from a
// math/rand source advanced past them.
type noiseSource struct {
	x0   uint64        // the normalized seed
	n    int           // draws since Seed
	tail rand.Source64 // math/rand's source, from draw noiseWindow+1 on
}

const (
	noiseWindow = 16 // the longest stream a study measurement draws
	lehmerMod   = 1<<31 - 1
)

// cookedWords are math/rand's rngCooked[318:334] and [591:607], copied
// from $GOROOT/src/math/rand/rng.go: the words draws 1–16 read.
var cookedWords = [2][noiseWindow]int64{
	{-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
		-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
		581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
		220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965},
	{-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
		-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
		-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
		-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406},
}

// lehmerPow[h][m] is 48271ⁿ mod (2³¹−1) for n = 21+3·[318, 591][h]+m:
// the three Lehmer steps behind each word of cookedWords[h].
var lehmerPow = func() (p [2][3 * noiseWindow]uint64) {
	for x, n := uint64(1), 1; n <= 23+3*606; n++ {
		x = x * 48271 % lehmerMod
		for h, first := range [2]int{318, 591} {
			if m := n - 21 - 3*first; m >= 0 && m < 3*noiseWindow {
				p[h][m] = x
			}
		}
	}
	return p
}()

// Seed normalizes seed as math/rand's rngSource.Seed does.
func (s *noiseSource) Seed(seed int64) {
	if seed %= lehmerMod; seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = uint64(seed), 0
}

func (s *noiseSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *noiseSource) Uint64() uint64 {
	if s.n++; s.n <= noiseWindow {
		j := noiseWindow - s.n // draw n adds words 318+j and 591+j
		return uint64(s.word(0, j) + s.word(1, j))
	}
	if s.n == noiseWindow+1 {
		s.tail = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range noiseWindow {
			s.tail.Uint64()
		}
	}
	return s.tail.Uint64()
}

// word is register word cookedWords[h][j] as math/rand's Seed leaves it.
func (s *noiseSource) word(h, j int) int64 {
	p := lehmerPow[h][3*j : 3*j+3]
	return int64(s.x0*p[0]%lehmerMod)<<40 ^ int64(s.x0*p[1]%lehmerMod)<<20 ^
		int64(s.x0*p[2]%lehmerMod) ^ cookedWords[h][j]
}
