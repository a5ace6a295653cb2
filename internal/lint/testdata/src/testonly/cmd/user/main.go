package main

import (
	"encoding/json"
	"fmt"

	"fixt/internal/lib"
)

func main() {
	fmt.Println(lib.UsedByOtherPackage(), lib.KindOne, lib.Fix[lib.State](lib.State{}), lib.Closer{})
	lib.Schedule(lib.Runner{})
	fmt.Println(json.Marshal(lib.Doc{}))
}
