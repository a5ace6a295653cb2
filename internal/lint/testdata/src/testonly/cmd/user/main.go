package main

import (
	"fmt"

	"fixt/internal/lib"
)

func main() { fmt.Println(lib.UsedByOtherPackage(), lib.KindOne, lib.Fix[lib.State](lib.State{})) }
