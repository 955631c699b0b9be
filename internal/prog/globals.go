package prog

import "encoding/binary"

// align pads the data segment to an n-byte boundary.
func (b *Builder) align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

func (b *Builder) defineSymbol(name string, addr uint64) {
	if _, dup := b.symbols[name]; dup {
		b.Errf("duplicate data symbol %q", name)
		return
	}
	b.symbols[name] = addr
}

// Bytes places raw bytes in the globals segment under the given symbol and
// returns its address.
func (b *Builder) Bytes(name string, data []byte) uint64 {
	b.align(8)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	b.data = append(b.data, data...)
	return addr
}

// Zeros reserves n zeroed bytes under the given symbol. A negative n, or one
// that would push the globals segment past the heap (HeapBase-DataBase
// bytes), is a build error and reserves nothing.
func (b *Builder) Zeros(name string, n int) uint64 {
	b.align(8)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	if room := int(HeapBase-DataBase) - len(b.data); n < 0 || n > room {
		b.Errf("zeros %q: size %d outside [0, %d]: the data segment ends at HeapBase-DataBase (%d bytes)",
			name, n, max(room, 0), HeapBase-DataBase)
		return addr
	}
	b.data = append(b.data, make([]byte, n)...)
	return addr
}

// Words64 places 8-byte little-endian words under the given symbol.
func (b *Builder) Words64(name string, ws []int64) uint64 {
	b.align(8)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], uint64(w))
		b.data = append(b.data, buf[:]...)
	}
	return addr
}

// Words32 places 4-byte little-endian words under the given symbol.
func (b *Builder) Words32(name string, ws []int32) uint64 {
	b.align(4)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	var buf [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(buf[:], uint32(w))
		b.data = append(b.data, buf[:]...)
	}
	return addr
}

// WordsPtr places pointer-width little-endian words under the given symbol.
func (b *Builder) WordsPtr(name string, ws []int64) uint64 {
	if b.target.PtrBytes == 8 {
		return b.Words64(name, ws)
	}
	w32 := make([]int32, len(ws))
	for i, w := range ws {
		w32[i] = int32(w)
	}
	return b.Words32(name, w32)
}

// Floats64 places float64 values under the given symbol.
func (b *Builder) Floats64(name string, fs []float64) uint64 {
	b.align(8)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	var buf [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(buf[:], floatBits(f))
		b.data = append(b.data, buf[:]...)
	}
	return addr
}

// SymbolAddr reports the address of a previously defined data symbol.
func (b *Builder) SymbolAddr(name string) uint64 {
	addr, ok := b.symbols[name]
	if !ok {
		b.Errf("unknown data symbol %q", name)
	}
	return addr
}

// PtrTable places a table of code or data addresses (resolved at Build time)
// under the given symbol. Entries whose isCode flag is true resolve against
// code labels; others against data symbols. Used for jump tables, vtables
// and function-pointer arrays.
func (b *Builder) PtrTable(name string, labels []string, isCode bool) uint64 {
	b.align(b.target.PtrBytes)
	addr := DataBase + uint64(len(b.data))
	b.defineSymbol(name, addr)
	for _, l := range labels {
		b.dataFix = append(b.dataFix, dataFixup{
			off: uint64(len(b.data)), label: l, isCode: isCode, width: b.target.PtrBytes,
		})
		b.data = append(b.data, make([]byte, b.target.PtrBytes)...)
	}
	return addr
}
