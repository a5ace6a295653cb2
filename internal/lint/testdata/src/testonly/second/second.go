package second

import "fixt/internal/lib"

func Use() { lib.UsedBySecondModule() }
